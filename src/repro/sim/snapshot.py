"""Snapshot-fork scenario server: reuse one booted system for many runs.

A fault-injection campaign pays a fresh :func:`repro.core.hive.boot_hive`
for every trial even though every trial starts from the *same* booted
state (the seed only feeds runtime RNG draws, never boot).  A
:class:`SystemImage` captures that booted state once and hands out
runnable copies in O(dirtied-state).

The capture mechanism is the operating system's own copy-on-write: the
image boots the system inside a dedicated *holder* process (forked before
boot, so closures and un-picklable coroutines never cross a process
boundary), freezes the heap into shared pages, and then forks a fresh
child per run.  The child inherits the booted system byte-for-byte —
the engine's event queue, per-cell kernel structures, pfdat/firewall/
coherence directories, RNG streams — and only pages it dirties are
copied.  Run requests and results travel over pipes as length-prefixed
pickle frames; the run function must therefore be module-level
(picklable by reference), which is the same contract the campaign's
multiprocessing workers already obey.

Determinism contract: fork-then-run must produce byte-identical
counters to fresh-boot-then-run.  Boot consumes no RNG draws and
:func:`reseed_system` rebinds the machine's ``RandomStreams`` to the
requested seed before the run function executes, so a child forked from
an image booted at any seed is indistinguishable from a fresh boot at
the run seed.  A platform without ``os.fork`` gets a fallback mode that
simply boots per run — same results, no amortization.

:func:`run_booted` is the one way the harness starts a trial: it boots
fresh or forks from the process's one image cache, runs a body on the
system and stamps what the setup cost.  Nothing else in ``src`` builds
an image, caches one, asks whether the platform forks or times a boot.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
import sys
import time
import traceback
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "SnapshotError",
    "SystemImage",
    "fork_supported",
    "reseed_system",
    "run_booted",
    "snapshot_enabled",
]

_LEN = struct.Struct("<Q")


class SnapshotError(RuntimeError):
    """A snapshot image could not be created or used."""


def fork_supported() -> bool:
    """Whether this platform can host a fork-based image."""
    return hasattr(os, "fork") and hasattr(os, "pipe")


def snapshot_enabled() -> bool:
    """Whether images fork: a property of the platform, not a setting.
    Without ``os.fork`` every run boots fresh."""
    return fork_supported()


def reseed_system(system: Any, seed: int) -> Any:
    """Rebind a booted system's RNG streams to ``seed``.

    Boot draws nothing from :class:`repro.sim.rng.RandomStreams` — the
    machine's streams are only consumed at runtime (disk rotational
    latency) — so resetting the stream seed and dropping derived streams
    makes a forked system equivalent to one freshly booted at ``seed``.
    """
    machine = getattr(system, "machine", None)
    if machine is None:
        return system
    machine.config.seed = seed
    machine.rng.seed = seed
    machine.rng._streams.clear()
    return system


# -- pipe framing -----------------------------------------------------------


def _write_frame(fd: int, obj: Any) -> None:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    payload = _LEN.pack(len(data)) + data
    view = memoryview(payload)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, size: int) -> Optional[bytes]:
    chunks = []
    remaining = size
    while remaining:
        chunk = os.read(fd, remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(fd: int) -> Optional[Any]:
    header = _read_exact(fd, _LEN.size)
    if header is None:
        return None
    body = _read_exact(fd, _LEN.unpack(header)[0])
    if body is None:
        return None
    return pickle.loads(body)


# -- the image --------------------------------------------------------------

_LIVE_IMAGES: list = []


def _close_all_images() -> None:
    for image in list(_LIVE_IMAGES):
        try:
            image.close()
        except Exception:
            pass


atexit.register(_close_all_images)


class SystemImage:
    """An immutable booted-system image that forks runnable copies.

    ``boot_fn(*boot_args, **boot_kwargs)`` must return the booted system
    object.  It runs inside the holder process (fork mode) or inline per
    run (fallback mode), so it may be any callable — only :meth:`run`'s
    function and arguments ever cross a process boundary.

    :meth:`run` executes ``fn(system, *args, **kwargs)`` against a fresh
    copy of the image and returns its (picklable) result.  With
    ``reseed=seed`` the copy's RNG streams are rebound before ``fn``
    executes, preserving the fresh-boot golden contract.
    """

    def __init__(self, boot_fn: Callable, *boot_args: Any,
                 name: str = "image", **boot_kwargs: Any):
        self.name = name
        self.boot_fn = boot_fn
        self.boot_args = boot_args
        self.boot_kwargs = boot_kwargs
        self.mode = "fork" if snapshot_enabled() else "boot"
        self.closed = False
        self.forks = 0
        self.boot_wall_s = 0.0
        self.fork_wall_s_last = 0.0
        self._holder_pid: Optional[int] = None
        self._req_w: Optional[int] = None
        self._resp_r: Optional[int] = None
        if self.mode == "fork":
            self._start_holder()
        _LIVE_IMAGES.append(self)

    # -- holder process ----------------------------------------------------

    def _start_holder(self) -> None:
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            # Holder: boot once, freeze the heap, serve fork requests.
            status = 1
            try:
                os.close(req_w)
                os.close(resp_r)
                self._holder_loop(req_r, resp_w)
                status = 0
            except BaseException:
                try:
                    traceback.print_exc()
                except Exception:
                    pass
            finally:
                os._exit(status)
        os.close(req_r)
        os.close(resp_w)
        self._holder_pid = pid
        self._req_w = req_w
        self._resp_r = resp_r
        ready = _read_frame(resp_r)
        if not ready or ready[0] != "ready":
            self._reap_holder()
            raise SnapshotError(
                f"image {self.name!r} failed to boot in holder: "
                f"{ready[1] if ready else 'holder died during boot'}")
        self.boot_wall_s = ready[1]

    def _holder_loop(self, req_r: int, resp_w: int) -> None:
        import gc

        try:
            t0 = time.perf_counter()
            system = self.boot_fn(*self.boot_args, **self.boot_kwargs)
            boot_wall = time.perf_counter() - t0
        except BaseException:
            _write_frame(resp_w, ("boot-error", traceback.format_exc()))
            return
        # Compact then freeze: surviving objects move to a permanent
        # generation the collector never touches, so child processes do
        # not dirty shared pages just by running a GC pass.
        gc.collect()
        if hasattr(gc, "freeze"):
            gc.freeze()
        _write_frame(resp_w, ("ready", boot_wall))
        while True:
            request = _read_frame(req_r)
            if request is None or request[0] == "exit":
                return
            _kind, fn, args, kwargs, seed, t_request = request
            child_r, child_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # Grandchild: one run against the inherited system.
                try:
                    os.close(req_r)
                    os.close(resp_w)
                    os.close(child_r)
                    if seed is not None:
                        reseed_system(system, seed)
                    fork_wall = time.perf_counter() - t_request
                    try:
                        result = fn(system, *args, **kwargs)
                        frame = ("ok", result, fork_wall)
                    except BaseException:
                        frame = ("error", traceback.format_exc(), fork_wall)
                    try:
                        _write_frame(child_w, frame)
                    except Exception:
                        _write_frame(child_w, (
                            "error",
                            "result not picklable:\n" + traceback.format_exc(),
                            fork_wall))
                finally:
                    os._exit(0)
            os.close(child_w)
            # Read before waitpid: large results would otherwise
            # deadlock on a full pipe.  EOF without a frame means the
            # child died before reporting.
            frame = _read_frame(child_r)
            os.close(child_r)
            os.waitpid(pid, 0)
            if frame is None:
                frame = ("error", "forked run died before reporting", 0.0)
            _write_frame(resp_w, frame)

    def _reap_holder(self) -> None:
        for fd in (self._req_w, self._resp_r):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._req_w = self._resp_r = None
        if self._holder_pid is not None:
            try:
                os.waitpid(self._holder_pid, 0)
            except (ChildProcessError, OSError):
                pass
            self._holder_pid = None

    # -- public API --------------------------------------------------------

    def run(self, fn: Callable, *args: Any, seed: Optional[int] = None,
            **kwargs: Any) -> Any:
        """Run ``fn(system, *args, **kwargs)`` against a fresh copy.

        ``seed`` (if given) reseeds the copy's RNG streams first.  In
        fork mode ``fn``/``args``/``kwargs``/result must be picklable;
        the system itself never crosses the pipe.
        """
        if self.closed:
            raise SnapshotError(f"image {self.name!r} is closed")
        if self.mode == "boot":
            t0 = time.perf_counter()
            system = self.boot_fn(*self.boot_args, **self.boot_kwargs)
            if not self.forks:
                self.boot_wall_s = time.perf_counter() - t0
            if seed is not None:
                reseed_system(system, seed)
            setup_wall = time.perf_counter() - t0
            self.forks += 1
            self.fork_wall_s_last = setup_wall
            return fn(system, *args, **kwargs)
        t_request = time.perf_counter()
        try:
            _write_frame(self._req_w,
                         ("run", fn, args, kwargs, seed, t_request))
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise SnapshotError(
                f"image {self.name!r}: run function and arguments must be "
                f"picklable (module-level callables, no closures): {exc}"
            ) from exc
        except (BrokenPipeError, OSError) as exc:
            self.close()
            raise SnapshotError(
                f"image {self.name!r}: holder process is gone: {exc}"
            ) from exc
        frame = _read_frame(self._resp_r)
        if frame is None:
            self.close()
            raise SnapshotError(
                f"image {self.name!r}: holder died while running")
        status, payload, fork_wall = frame
        self.forks += 1
        self.fork_wall_s_last = fork_wall
        if status == "error":
            raise SnapshotError(
                f"forked run failed in image {self.name!r}:\n{payload}")
        return payload

    def close(self) -> None:
        """Shut the holder down; the image is unusable afterwards."""
        if self.closed:
            return
        self.closed = True
        if self.mode == "fork" and self._req_w is not None:
            try:
                _write_frame(self._req_w, ("exit",))
            except OSError:
                pass
            self._reap_holder()
        if self in _LIVE_IMAGES:
            _LIVE_IMAGES.remove(self)

    def __enter__(self) -> "SystemImage":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


# -- the one boot-or-fork primitive -----------------------------------------

#: this process's images, keyed ``(pid, boot_fn, boot_args)``.  A forked run
#: is reseeded, so the seed an image happened to boot at never keys it; the
#: pid does, because a pool worker forked from a process that already holds
#: an image inherits the dict and must not talk on its parent's pipes.
_IMAGES: Dict[tuple, SystemImage] = {}


def run_booted(boot_fn: Callable, boot_args: tuple, fn: Callable,
               *args: Any, seed: int,
               snapshot: bool = False) -> Tuple[Any, dict]:
    """Run ``fn(system, *args)`` on a system booted by
    ``boot_fn(*boot_args, seed)``; returns ``(result, setup)``.

    With ``snapshot`` the system is a copy of the cached image for
    ``(boot_fn, boot_args)`` reseeded to ``seed`` (built on first use;
    ``fn``, ``args`` and the result must then be picklable), and
    ``setup["mode"]`` is the image's: ``"fork"``, or ``"boot"`` where
    the platform cannot fork.  ``setup_wall_s`` is what this run paid
    before ``fn`` started, ``boot_wall_s`` what one boot costs.
    """
    if not snapshot:
        t0 = time.perf_counter()
        system = boot_fn(*boot_args, seed)
        boot_wall = time.perf_counter() - t0
        return fn(system, *args), {"mode": "boot", "setup_wall_s": boot_wall,
                                   "boot_wall_s": boot_wall}
    key = (os.getpid(), boot_fn, boot_args)
    image = _IMAGES.get(key)
    if image is None or image.closed:
        name = "-".join([boot_fn.__name__, *map(str, boot_args)])
        image = _IMAGES[key] = SystemImage(boot_fn, *boot_args, seed,
                                           name=name)
    result = image.run(fn, *args, seed=seed)
    return result, {"mode": image.mode,
                    "setup_wall_s": image.fork_wall_s_last,
                    "boot_wall_s": image.boot_wall_s}
