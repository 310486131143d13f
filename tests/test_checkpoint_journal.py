"""The checkpoint journal: its line format, its state files, and a run killed
at every file operation a checkpoint makes.

The searches are the resume floor's (``tests/test_checkpoint_floor.py``):
sixteen small children, a latency gate that rejects some of them, and a
cache smaller than the number of distinct children.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import tempfile
import time
import zlib
from collections import OrderedDict

import pytest

from repro.core.results import SearchHistory
from repro.engine import EngineConfig, SearchEngine, checkpoint
from repro.engine.checkpoint import (
    CHECKPOINT_JOURNAL,
    checkpoint_paths,
    has_checkpoint,
    load_checkpoint,
)
from repro.engine.events import CHECKPOINT_WRITTEN
from repro.engine.serde import record_to_dict

from test_checkpoint_floor import _assert_same, _final_state, _search

GATE_MS = 250.0
SETTINGS = dict(use_cache=True, cache_capacity=3, batch_episodes=2, checkpoint_every=2)


def _gated(tiny_splits, tiny_backbone, episodes):
    return _search(tiny_splits, tiny_backbone, GATE_MS, episodes, seed=1)


def _journal_lines(run_dir):
    with open(os.path.join(run_dir, CHECKPOINT_JOURNAL), "rb") as handle:
        return handle.read().split(b"\n")[:-1]


def _parse(raw):
    text, tab, checksum = raw.rpartition(b"\t")
    assert tab and checksum == b"%08x" % zlib.crc32(text)
    return json.loads(text)


def _state_files(run_dir):
    return sorted(name for name in os.listdir(run_dir) if name.endswith(".state"))


def _run_copying(tiny_splits, tiny_backbone, tmp_path, episodes):
    """Run a gated search, copying its run directory at every checkpoint."""
    run_dir = str(tmp_path / "run")
    copies = []

    def copy_run_dir(event):
        copy = str(tmp_path / f"copy-{len(copies)}")
        shutil.copytree(run_dir, copy)
        copies.append(copy)

    engine = SearchEngine(
        _gated(tiny_splits, tiny_backbone, episodes), EngineConfig(run_dir=run_dir, **SETTINGS)
    )
    engine.events.subscribe(copy_run_dir, kinds=[CHECKPOINT_WRITTEN])
    history = engine.run().history
    return engine, history, run_dir, copies


class TestJournalFormat:
    def test_each_line_holds_the_records_since_the_previous_line(
        self, tiny_splits, tiny_backbone, tmp_path
    ):
        episodes = 16
        engine, history, run_dir, _ = _run_copying(
            tiny_splits, tiny_backbone, tmp_path, episodes
        )
        lines = [_parse(raw) for raw in _journal_lines(run_dir)]
        # Eight periodic checkpoints and the final one.
        assert [line["next_episode"] for line in lines] == list(range(2, 17, 2)) + [16]
        previous = 0
        for line in lines:
            assert [record["episode"] for record in line["records"]] == list(
                range(previous, line["next_episode"])
            )
            previous = line["next_episode"]
        # The base line holds the whole cache in LRU order.  A later line's
        # cache keys are at most those its own episodes touched (one each).
        assert lines[0]["cache_moved"] == [key for key, _ in lines[0]["cache"]]
        for line in lines:
            assert len(line["cache_moved"]) <= len(line["records"])
            assert len(line["cache"]) <= len(line["records"])
        # The final save changed no array, so it wrote no state file.
        assert lines[-1]["state"] == lines[-2]["state"]
        assert lines[-2]["state"] != lines[-3]["state"]

        loaded = load_checkpoint(run_dir)
        assert [record_to_dict(r) for r in loaded.history.records] == [
            record_to_dict(r) for r in history.records
        ]
        assert loaded.cache_entries == engine.cache.snapshot()

    def test_every_save_leaves_the_journal_and_one_state_file(
        self, tiny_splits, tiny_backbone, tmp_path
    ):
        _, _, _, copies = _run_copying(tiny_splits, tiny_backbone, tmp_path, 8)
        assert len(copies) == 5
        for copy in copies:
            states = _state_files(copy)
            assert len(states) == 1
            assert sorted(os.listdir(copy)) == sorted(
                [CHECKPOINT_JOURNAL, "telemetry.jsonl", *states]
            )
            assert checkpoint_paths(copy) == [
                os.path.join(copy, name) for name in [CHECKPOINT_JOURNAL, *states]
            ]

    def test_the_order_delta_rebuilds_any_lru_order(self):
        rng = random.Random(0)
        for _ in range(500):
            capacity = rng.randint(1, 6)
            lru = OrderedDict()
            previous = []
            for _ in range(6):
                for _ in range(rng.randint(0, 10)):
                    key = f"k{rng.randint(0, 12)}"
                    if rng.random() < 0.5:
                        if key in lru:
                            lru.move_to_end(key)
                        continue
                    lru[key] = None
                    lru.move_to_end(key)
                    while len(lru) > capacity:
                        lru.popitem(last=False)
                order = list(lru)
                evicted, moved = checkpoint._order_delta(previous, order)
                assert checkpoint._apply_order_delta(previous, evicted, moved) == order
                assert not set(evicted) & set(order)
                previous = order

    def test_a_torn_last_line_is_ignored(self, tiny_splits, tiny_backbone, tmp_path):
        _, _, run_dir, copies = _run_copying(tiny_splits, tiny_backbone, tmp_path, 8)
        intact = load_checkpoint(copies[1])
        next_line = _journal_lines(run_dir)[2] + b"\n"
        flipped = bytearray(next_line)
        flipped[len(flipped) // 3] ^= 1  # whole, but its checksum fails
        torn = [next_line[: len(next_line) // 2], bytes(flipped), b"garbage\n"]
        for tail in torn:
            shutil.copytree(copies[1], tmp_path / "torn", dirs_exist_ok=True)
            with open(tmp_path / "torn" / CHECKPOINT_JOURNAL, "ab") as handle:
                handle.write(tail)
            assert has_checkpoint(str(tmp_path / "torn"))
            loaded = load_checkpoint(str(tmp_path / "torn"))
            assert loaded.next_episode == intact.next_episode == 4
            assert [record_to_dict(r) for r in loaded.history.records] == [
                record_to_dict(r) for r in intact.history.records
            ]
            assert loaded.cache_entries == intact.cache_entries
            shutil.rmtree(tmp_path / "torn")

    def test_a_mismatched_or_missing_state_file_is_an_error(
        self, tiny_splits, tiny_backbone, tmp_path
    ):
        _, _, run_dir, _ = _run_copying(tiny_splits, tiny_backbone, tmp_path, 4)
        [state] = _state_files(run_dir)
        path = os.path.join(run_dir, state)
        with open(path, "r+b") as handle:
            first = handle.read(1)
            handle.seek(0)
            handle.write(bytes([first[0] ^ 1]))
        assert has_checkpoint(run_dir)
        with pytest.raises(ValueError, match="does not match its name"):
            load_checkpoint(run_dir)
        os.unlink(path)
        with pytest.raises(FileNotFoundError):
            load_checkpoint(run_dir)


def test_a_failed_append_starts_the_journal_over(
    tiny_splits, tiny_backbone, tmp_path, monkeypatch
):
    """A save that raises mid-append leaves part of a line; the next save
    with the same cursor must not append after it."""
    search = _gated(tiny_splits, tiny_backbone, 2)
    run_dir = str(tmp_path / "run")
    cursor = checkpoint.JournalCursor()

    def save(next_episode):
        return checkpoint.save_checkpoint(
            run_dir,
            next_episode=next_episode,
            context_key="context",
            controller=search.controller,
            policy_trainer=search.policy_trainer,
            sample_rng=search._sample_rng,
            child_rng=search._child_rng,
            history=SearchHistory(),
            cursor=cursor,
        )

    def failing_append(path, data):
        with open(path, "ab") as handle:
            handle.write(data[: len(data) // 2])
        raise OSError("disk full")

    save(1)
    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "_append", failing_append)
        with pytest.raises(OSError, match="disk full"):
            save(2)
    save(3)
    assert load_checkpoint(run_dir).next_episode == 3
    assert len(_journal_lines(run_dir)) == 1


# -- kill at every write ---------------------------------------------------------------
KILL_EPISODES = 8
FILE_OPERATIONS = ("_replace", "_append", "_fsync", "_unlink")
DATA_WRITES = ("_replace", "_append")


def _interpose(on_operation):
    """Send every file operation of the checkpoint module through
    ``on_operation(name, real, *args)``."""
    for name in FILE_OPERATIONS:
        real = getattr(checkpoint, name)
        setattr(
            checkpoint,
            name,
            lambda *args, _name=name, _real=real: on_operation(_name, _real, *args),
        )


def _torn(name, path, data):
    """What a data write leaves when the process dies halfway through it."""
    half = data[: len(data) // 2]
    if name == "_append":
        with open(path, "ab") as handle:
            handle.write(half)
    else:  # an atomic replace dies while writing its temp file
        fd, _ = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=f".{os.path.basename(path)}.", suffix=".tmp"
        )
        os.write(fd, half)


def _killed_run(start_engine, kill_at, torn):
    """In a forked child, run ``start_engine()`` and SIGKILL at file
    operation ``kill_at``: before it, or halfway through it when ``torn``."""
    pid = os.fork()
    if pid == 0:
        try:
            count = [0]

            def on_operation(name, real, *args):
                if count[0] == kill_at:
                    if torn:
                        _torn(name, *args)
                    os.kill(os.getpid(), signal.SIGKILL)
                count[0] += 1
                return real(*args)

            _interpose(on_operation)
            start_engine().run()
        finally:
            os._exit(3)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"child still running at operation {kill_at} after 60 s")
        time.sleep(0.002)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL, (
        f"child was not killed at operation {kill_at} (status {status})"
    )


@pytest.mark.parametrize("start", ["fresh", "resumed-mid-run", "resumed-at-the-end"])
def test_a_run_killed_at_any_checkpoint_write_resumes_bit_for_bit(
    start, tiny_splits, tiny_backbone, tmp_path, monkeypatch
):
    """A fresh run, or one resumed from a checkpoint of an undisturbed run, is
    killed at each of its checkpoint file operations in turn.  The run
    directory it leaves is resumed (or, holding no checkpoint, started
    afresh) and must end where a straight run ends."""

    def search():
        return _gated(tiny_splits, tiny_backbone, KILL_EPISODES)

    reference_engine = SearchEngine(search(), EngineConfig(**SETTINGS))
    reference = _final_state(reference_engine, reference_engine.run().history)
    origin = None
    if start != "fresh":
        _, _, _, copies = _run_copying(tiny_splits, tiny_backbone, tmp_path, KILL_EPISODES)
        origin = copies[1] if start == "resumed-mid-run" else copies[-1]
        origin_episode = load_checkpoint(origin).next_episode

    def prepared(name):
        run_dir = str(tmp_path / name)
        if origin is not None:
            shutil.copytree(origin, run_dir)
        return run_dir

    def continue_run(run_dir):
        config = EngineConfig(run_dir=run_dir, **SETTINGS)
        if has_checkpoint(run_dir):
            return SearchEngine.resume(search(), config)
        return SearchEngine(search(), config)

    # The file operations of an undisturbed run, in order.
    operations = []
    for name in FILE_OPERATIONS:
        real = getattr(checkpoint, name)
        monkeypatch.setattr(
            checkpoint,
            name,
            lambda *args, _name=name, _real=real: (operations.append(_name), _real(*args))[1],
        )
    continue_run(prepared("undisturbed")).run()
    monkeypatch.undo()
    assert set(operations) >= {"_replace", "_fsync"}

    kill_points = [(index, False) for index in range(len(operations))]
    kill_points += [
        (index, True) for index, name in enumerate(operations) if name in DATA_WRITES
    ]
    for index, torn in kill_points:
        label = f"killed {'halfway through' if torn else 'before'} {operations[index]} #{index}"
        run_dir = prepared(f"run-{index}-{int(torn)}")
        _killed_run(lambda: continue_run(run_dir), index, torn)
        if origin is not None:
            # No kill point loses a checkpoint the directory already held.
            assert load_checkpoint(run_dir).next_episode >= origin_episode, label
        engine = continue_run(run_dir)
        _assert_same(_final_state(engine, engine.run().history), reference, label)
        # The resumed run's first save swept what the killed one left behind.
        assert len(checkpoint_paths(run_dir)) == 2, label
        assert not [name for name in os.listdir(run_dir) if name.endswith(".tmp")], label
