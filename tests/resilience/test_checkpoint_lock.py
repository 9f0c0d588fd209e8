"""Checkpoint durability: fsync, the sidecar lock, and disk faults.

Covers the crash-safety corners of :class:`SearchCheckpoint`:

* ``save()`` fsyncs the temp file before the atomic rename;
* the pid-stamped ``<path>.lock`` enforces single-writer (a *live*
  foreign holder is an error; a stale one -- writer killed
  mid-rename -- is broken and recovered from);
* disk faults (``ENOSPC``/``EACCES``) during *autosave* degrade to an
  ``AVD309`` event instead of killing the search, while an explicit
  ``save()`` still raises.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

import pytest

from repro.errors import CheckpointError
from repro.resilience.checkpoint import SearchCheckpoint
from repro.resilience.events import CHECKPOINT_FAULT


def make_checkpoint(tmp_path, interval=5):
    return SearchCheckpoint(str(tmp_path / "cp.json"),
                            interval=interval)


class TestSaveDurability:
    def test_save_fsyncs_before_rename(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            calls.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            calls.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        checkpoint = make_checkpoint(tmp_path)
        checkpoint.record_evaluation(("web", 1, 0), 0.01)
        checkpoint.save()
        assert calls == ["fsync", "replace"]
        with open(tmp_path / "cp.json", encoding="utf-8") as handle:
            json.load(handle)    # valid JSON on disk

    def test_save_releases_the_lock(self, tmp_path):
        checkpoint = make_checkpoint(tmp_path)
        checkpoint.record_evaluation(("web", 1, 0), 0.01)
        checkpoint.save()
        assert not os.path.exists(str(tmp_path / "cp.json") + ".lock")
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]


class TestSidecarLock:
    def test_live_foreign_writer_is_an_error(self, tmp_path):
        holder = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            lock = str(tmp_path / "cp.json") + ".lock"
            with open(lock, "w", encoding="utf-8") as handle:
                handle.write("%d\n" % holder.pid)
            checkpoint = make_checkpoint(tmp_path)
            checkpoint.record_evaluation(("web", 1, 0), 0.01)
            with pytest.raises(CheckpointError,
                               match="another live writer"):
                checkpoint.save()
            assert os.path.exists(lock)    # never break a live lock
        finally:
            holder.kill()
            holder.wait(timeout=30)

    def test_stale_dead_holder_lock_is_broken(self, tmp_path):
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait(timeout=30)
        lock = str(tmp_path / "cp.json") + ".lock"
        with open(lock, "w", encoding="utf-8") as handle:
            handle.write("%d\n" % dead.pid)
        checkpoint = make_checkpoint(tmp_path)
        checkpoint.record_evaluation(("web", 1, 0), 0.01)
        assert checkpoint.save() == str(tmp_path / "cp.json")
        assert not os.path.exists(lock)

    @pytest.mark.parametrize("content", ["", "not-a-pid\n"])
    def test_unreadable_lock_is_broken(self, tmp_path, content):
        lock = str(tmp_path / "cp.json") + ".lock"
        with open(lock, "w", encoding="utf-8") as handle:
            handle.write(content)
        checkpoint = make_checkpoint(tmp_path)
        checkpoint.record_evaluation(("web", 1, 0), 0.01)
        checkpoint.save()
        assert not os.path.exists(lock)

    def test_own_pid_lock_is_broken(self, tmp_path):
        # A prior incarnation in this very process (e.g. after an
        # exception between acquire and release) must not deadlock us.
        lock = str(tmp_path / "cp.json") + ".lock"
        with open(lock, "w", encoding="utf-8") as handle:
            handle.write("%d\n" % os.getpid())
        checkpoint = make_checkpoint(tmp_path)
        checkpoint.record_evaluation(("web", 1, 0), 0.01)
        checkpoint.save()


class TestKillMidRename:
    def test_writer_killed_before_rename_leaves_recoverable_state(
            self, tmp_path):
        """Regression: kill -9 between fsync and rename.

        The dead writer leaves its pid-stamped lock (and temp file)
        behind; the next writer must break the stale lock, save
        cleanly, and the checkpoint must load as valid JSON.
        """
        script = textwrap.dedent("""
            import os, sys
            from repro.resilience.checkpoint import SearchCheckpoint

            def blocked_replace(src, dst):
                print("READY", flush=True)
                import time
                time.sleep(60)

            os.replace = blocked_replace
            cp = SearchCheckpoint(sys.argv[1], interval=1)
            cp.record_evaluation(("web", 1, 0), 0.01)
            cp.save()
        """)
        target = str(tmp_path / "cp.json")
        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(
            os.path.abspath(__file__)), os.pardir, os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        writer = subprocess.Popen(
            [sys.executable, "-c", script, target],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            assert writer.stdout.readline().strip() == "READY"
            writer.kill()                  # mid-"rename"
        finally:
            writer.wait(timeout=30)

        lock = target + ".lock"
        assert os.path.exists(lock)        # the stale crash residue

        checkpoint = SearchCheckpoint(target, interval=1)
        checkpoint.record_evaluation(("web", 2, 1), 0.02)
        checkpoint.save()
        assert not os.path.exists(lock)
        resumed = SearchCheckpoint.load(target)
        assert resumed.evaluations == 1


class TestDiskFaultDegradation:
    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES])
    def test_autosave_degrades_to_avd309(self, tmp_path, monkeypatch,
                                         code):
        checkpoint = make_checkpoint(tmp_path, interval=2)

        def broken_tempfile(*args, **kwargs):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(tempfile, "NamedTemporaryFile",
                            broken_tempfile)
        # Reaching the interval triggers an autosave; the fault must
        # not propagate out of record_evaluation.
        checkpoint.record_evaluation(("web", 1, 0), 0.01)
        checkpoint.record_evaluation(("web", 2, 0), 0.02)
        assert checkpoint.save_failures == 1
        events = list(checkpoint.drain_log())
        assert len(events) == 1
        assert events[0].kind == CHECKPOINT_FAULT
        assert os.strerror(code) in events[0].detail

        # An explicit save() is a user command: it still raises.
        with pytest.raises(CheckpointError):
            checkpoint.save()

    def test_autosave_backs_off_after_a_failure(self, tmp_path,
                                                monkeypatch):
        checkpoint = make_checkpoint(tmp_path, interval=2)
        attempts = []
        real = tempfile.NamedTemporaryFile

        def flaky_tempfile(*args, **kwargs):
            attempts.append(len(attempts))
            if len(attempts) == 1:
                raise OSError(errno.ENOSPC, "no space")
            return real(*args, **kwargs)

        monkeypatch.setattr(tempfile, "NamedTemporaryFile",
                            flaky_tempfile)
        checkpoint.record_evaluation(("web", 1, 0), 0.01)
        checkpoint.record_evaluation(("web", 2, 0), 0.02)
        assert attempts == [0]             # first autosave failed
        # The next entry is below the backed-off threshold: no retry.
        checkpoint.record_evaluation(("web", 3, 0), 0.03)
        assert attempts == [0]
        # Another interval of progress retries -- and succeeds.
        checkpoint.record_evaluation(("web", 4, 0), 0.04)
        assert attempts == [0, 1]
        assert checkpoint.save_failures == 1
        resumed = SearchCheckpoint.load(str(tmp_path / "cp.json"))
        assert resumed.evaluations == 4

    @pytest.mark.parametrize("record", ["record_evaluation",
                                        "record_batch"])
    def test_full_disk_saves_follow_interval_and_backoff(
            self, tmp_path, monkeypatch, record):
        """Single solves and one-entry wavefronts share one save rule:
        on a full disk, 30 recorded solves at interval 10 make three
        save attempts (one per interval of backed-off progress) and
        log three AVD309 events -- not one per call."""
        checkpoint = make_checkpoint(tmp_path, interval=10)
        attempts = []

        def full_disk(*args, **kwargs):
            attempts.append(1)
            raise OSError(errno.ENOSPC, "no space")

        monkeypatch.setattr(tempfile, "NamedTemporaryFile", full_disk)
        for index in range(30):
            key, value = ("web", index, 0), index / 100.0
            if record == "record_evaluation":
                checkpoint.record_evaluation(key, value)
            else:
                checkpoint.record_batch([(key, value)])
        assert len(attempts) == 3
        assert checkpoint.save_failures == 3
        events = list(checkpoint.drain_log())
        assert [event.kind for event in events] == [CHECKPOINT_FAULT] * 3

    def test_flush_degrades_instead_of_raising(self, tmp_path,
                                               monkeypatch):
        checkpoint = make_checkpoint(tmp_path, interval=100)
        checkpoint.record_evaluation(("web", 1, 0), 0.01)

        def broken_tempfile(*args, **kwargs):
            raise OSError(errno.ENOSPC, "no space")

        monkeypatch.setattr(tempfile, "NamedTemporaryFile",
                            broken_tempfile)
        checkpoint.flush()                 # Aved calls this in finally
        assert checkpoint.save_failures == 1
        assert len(checkpoint.log) == 1


class TestConcurrentAccess:
    def test_two_threads_one_path_never_corrupt(self, tmp_path):
        """Hammer one checkpoint path from two threads.

        Whatever interleaving happens, the file on disk must always
        be complete valid JSON (atomic rename), and any contention
        surfaces as CheckpointError -- never as a torn file.
        """
        import threading
        target = str(tmp_path / "cp.json")
        errors = []

        def writer(worker):
            checkpoint = SearchCheckpoint(target, interval=1)
            for index in range(20):
                checkpoint.record_evaluation(
                    ("web", worker, index), 0.01)
                try:
                    checkpoint.save()
                except CheckpointError:
                    pass        # lost the single-writer race: fine
                except Exception as exc:   # noqa: BLE001
                    errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,))
                   for n in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        with open(target, encoding="utf-8") as handle:
            data = json.load(handle)       # never torn
        assert data["availability_cache"]
