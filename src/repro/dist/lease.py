"""Atomic lease files: the claim protocol of the distributed work queue.

A lease is one file per work unit (``leases/<key>.lease``) created with
``O_CREAT | O_EXCL`` — the one filesystem primitive that arbitrates between
any number of processes *and hosts* sharing a directory (NFS included, for
any remotely modern server).  Whoever creates the file owns the unit; every
loser of the race gets ``FileExistsError`` and moves on to the next unit.

Liveness is the file's **mtime**: the owner refreshes it periodically (the
heartbeat) while simulating, and a lease whose mtime is older than the TTL
is *expired* — its owner is presumed dead (SIGKILL, host loss, partition).
On a shared filesystem that mtime comes from the file server's clock, so a
lease's age is measured against the same clock — the mtime of a probe file
touched in the lease directory — never against the local ``time.time()``:
a host whose clock runs ahead would otherwise reclaim live leases.
Reclaiming an expired lease must itself be race-free, so it goes through
``os.replace`` onto a per-claimant unique name: of N workers that all see
the same expired lease, exactly one wins the rename, deletes the stale
file, and competes again under ``O_CREAT | O_EXCL``.

Ownership is verified by a random token stored inside the file: a worker
that stalled past its own TTL and got reclaimed must not release (or
heartbeat) the *successor's* lease.  None of this protects the result store
— it does not need protecting: ``ResultStore.put`` is an atomic replace of
deterministic content, so even a double-claim (possible when a worker
outlives its TTL without heartbeating) only costs a duplicated simulation,
never a corrupt entry.  Leases exist to make that duplication rare, not to
make correctness depend on them.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

__all__ = ["DEFAULT_TTL_SECONDS", "Heartbeat", "Lease", "LeaseBroker"]

#: Default lease time-to-live.  Generous relative to one replication (the
#: 100k-job std-scale unit runs ~30s) so heartbeats only matter for truly
#: long units, yet short enough that a killed worker's units come back
#: quickly.
DEFAULT_TTL_SECONDS = 120.0


@dataclass
class Lease:
    """One held claim: the lease file, its identity token, and its TTL."""

    path: Path
    key: str
    owner: str
    token: str
    ttl: float

    def heartbeat(self) -> bool:
        """Refresh the lease's mtime; False when the lease is no longer ours.

        A lease that expired and was reclaimed (or released twice) is gone or
        carries a different token — touching it would extend someone else's
        claim, so the heartbeat verifies ownership first.
        """
        if not self._owned():
            return False
        try:
            os.utime(self.path)
        except OSError:
            return False
        return True

    def release(self) -> bool:
        """Delete the lease file if it is still ours; returns success."""
        if not self._owned():
            return False
        try:
            self.path.unlink()
        except OSError:
            return False
        return True

    def _owned(self) -> bool:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return json.load(handle).get("token") == self.token
        except (OSError, ValueError):
            return False


class LeaseBroker:
    """Acquire/reclaim leases for one queue's ``leases/`` directory."""

    def __init__(
        self,
        root: Union[str, Path],
        ttl: float = DEFAULT_TTL_SECONDS,
        owner: Optional[str] = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.root = Path(root)
        self.ttl = float(ttl)
        self.owner = owner or f"{socket.gethostname()}-{os.getpid()}"
        #: expired leases this broker reclaimed (the `dist.lease_expired` feed)
        self.reclaimed = 0
        #: acquisition attempts lost to a live competing lease
        self.contended = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.lease"

    def acquire(self, key: str) -> Optional[Lease]:
        """Try to claim ``key``; returns the held lease or None.

        Exactly one concurrent caller can succeed.  An expired lease left by
        a dead worker is reclaimed first (rename-arbitrated), after which the
        claim is re-contested from scratch — the reclaimer earns no priority.
        """
        path = self.path_for(key)
        token = uuid.uuid4().hex
        lease = self._create(path, key, token)
        if lease is not None:
            return lease
        if not self._reclaim_expired(path, token):
            self.contended += 1
            return None
        return self._create(path, key, token)

    def _create(self, path: Path, key: str, token: str) -> Optional[Lease]:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        payload: Dict[str, Any] = {
            "key": key,
            "owner": self.owner,
            "token": token,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "acquired_at": round(time.time(), 6),
            "ttl_seconds": self.ttl,
        }
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True))
        return Lease(path=path, key=key, owner=self.owner, token=token, ttl=self.ttl)

    def _filesystem_now(self) -> float:
        """The lease directory's clock: the mtime of a freshly touched probe file.

        Falls back to the local clock when the probe cannot be written
        (a read-only view of the queue).
        """
        probe = self.root / ".clock"
        try:
            probe.touch()
            return probe.stat().st_mtime
        except OSError:
            return time.time()

    def is_expired(self, path: Path, now: Optional[float] = None) -> Optional[bool]:
        """Whether the lease at ``path`` has outlived its TTL (None: gone).

        ``now`` is :meth:`_filesystem_now`, taken here when not given.
        """
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return None
        if now is None:
            now = self._filesystem_now()
        return now - mtime > self.ttl

    def _reclaim_expired(self, path: Path, token: str) -> bool:
        """Remove ``path`` if expired; True when the slot is (now) free.

        The rename-to-unique-name is the arbitration: two workers that both
        observed the expired lease race on ``os.replace`` from the *same*
        source, and the kernel hands the file to exactly one of them.
        """
        expired = self.is_expired(path)
        if expired is None:
            return True  # released in the meantime: the slot is free
        if not expired:
            return False
        stale = path.with_name(f"{path.name}.stale-{token}")
        try:
            os.replace(path, stale)
        except OSError:
            # Lost the rename race (or the owner released): either way the
            # original path is free to contest again.
            return True
        try:
            stale.unlink()
        except OSError:
            pass
        self.reclaimed += 1
        return True

    def active_leases(self) -> Dict[str, bool]:
        """Current leases: ``{key: expired}`` (snapshot; racy by nature)."""
        if not self.root.is_dir():
            return {}
        out: Dict[str, bool] = {}
        now = self._filesystem_now()
        for path in sorted(self.root.glob("*.lease")):
            expired = self.is_expired(path, now)
            if expired is not None:
                out[path.stem] = expired
        return out


class Heartbeat:
    """Background mtime refresher held while a unit simulates.

    A daemon thread touches the lease every ``interval`` seconds (default
    TTL/4) so a long simulation never loses its claim; ``stop()`` joins the
    thread.  Use as a context manager around the simulation call.
    """

    def __init__(self, lease: Lease, interval: Optional[float] = None) -> None:
        self.lease = lease
        self.interval = interval if interval is not None else max(lease.ttl / 4.0, 0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{lease.key[:8]}", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.lease.heartbeat():
                return  # no longer ours; extending it would be someone else's

    def __enter__(self) -> "Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()
