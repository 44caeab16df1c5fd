"""Tests for the lease protocol: exclusivity, expiry, reclaim, ownership."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.dist.lease import DEFAULT_TTL_SECONDS, Heartbeat, Lease, LeaseBroker


KEY = "a" * 64


class TestAcquire:
    def test_acquire_creates_lease_file(self, tmp_path):
        broker = LeaseBroker(tmp_path, ttl=60)
        lease = broker.acquire(KEY)
        assert lease is not None
        assert lease.path.is_file()
        payload = json.loads(lease.path.read_text())
        assert payload["key"] == KEY
        assert payload["token"] == lease.token
        assert payload["pid"] == os.getpid()

    def test_second_acquire_loses(self, tmp_path):
        broker = LeaseBroker(tmp_path, ttl=60)
        assert broker.acquire(KEY) is not None
        rival = LeaseBroker(tmp_path, ttl=60, owner="rival")
        assert rival.acquire(KEY) is None
        assert rival.contended == 1

    def test_release_frees_the_slot(self, tmp_path):
        broker = LeaseBroker(tmp_path, ttl=60)
        lease = broker.acquire(KEY)
        assert lease.release()
        assert not lease.path.exists()
        assert broker.acquire(KEY) is not None

    def test_double_release_is_safe(self, tmp_path):
        broker = LeaseBroker(tmp_path, ttl=60)
        lease = broker.acquire(KEY)
        assert lease.release()
        assert not lease.release()

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            LeaseBroker(tmp_path, ttl=0)

    def test_exactly_one_concurrent_winner(self, tmp_path):
        # N threads race one key through independent brokers (one per
        # claimant, as in a real fleet); exactly one may hold the lease.
        winners = []
        barrier = threading.Barrier(8)

        def contend(i: int) -> None:
            broker = LeaseBroker(tmp_path, ttl=60, owner=f"w{i}")
            barrier.wait()
            lease = broker.acquire(KEY)
            if lease is not None:
                winners.append(lease)

        threads = [threading.Thread(target=contend, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1


class TestExpiry:
    def test_expired_lease_is_reclaimed(self, tmp_path):
        dead = LeaseBroker(tmp_path, ttl=0.05, owner="dead")
        stale = dead.acquire(KEY)
        assert stale is not None
        time.sleep(0.1)
        heir = LeaseBroker(tmp_path, ttl=0.05, owner="heir")
        lease = heir.acquire(KEY)
        assert lease is not None
        assert heir.reclaimed == 1
        # The original owner must not be able to release the new claim.
        assert not stale.release()
        assert lease.path.is_file()

    def test_live_lease_is_not_reclaimed(self, tmp_path):
        broker = LeaseBroker(tmp_path, ttl=60)
        assert broker.acquire(KEY) is not None
        rival = LeaseBroker(tmp_path, ttl=60, owner="rival")
        assert rival.acquire(KEY) is None
        assert rival.reclaimed == 0

    def test_heartbeat_keeps_a_lease_alive(self, tmp_path):
        broker = LeaseBroker(tmp_path, ttl=0.4)
        lease = broker.acquire(KEY)
        rival = LeaseBroker(tmp_path, ttl=0.4, owner="rival")
        with Heartbeat(lease, interval=0.05):
            deadline = time.monotonic() + 0.8
            while time.monotonic() < deadline:
                assert rival.acquire(KEY) is None
                time.sleep(0.05)
        assert lease.release()

    def test_heartbeat_refuses_a_reclaimed_lease(self, tmp_path):
        broker = LeaseBroker(tmp_path, ttl=0.05)
        lease = broker.acquire(KEY)
        time.sleep(0.1)
        heir = LeaseBroker(tmp_path, ttl=0.05, owner="heir")
        assert heir.acquire(KEY) is not None
        assert not lease.heartbeat()

    def test_active_leases_reports_expiry(self, tmp_path):
        probe = LeaseBroker(tmp_path, ttl=0.2)
        probe.acquire("b" * 64)
        time.sleep(0.3)
        probe.acquire("c" * 64)
        leases = probe.active_leases()
        assert leases == {"b" * 64: True, "c" * 64: False}

    @pytest.mark.parametrize("skew", [3600.0, -3600.0], ids=["clock-ahead", "clock-behind"])
    def test_age_is_measured_on_the_filesystem_clock(self, tmp_path, monkeypatch, skew):
        # On a shared filesystem lease mtimes come from the server's clock,
        # not the host's: a skewed host clock must not change a lease's age.
        live = LeaseBroker(tmp_path, ttl=60, owner="live")
        assert live.acquire(KEY) is not None
        dead = LeaseBroker(tmp_path, ttl=0.05, owner="dead")
        assert dead.acquire("d" * 64) is not None
        time.sleep(0.1)
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + skew)
        rival = LeaseBroker(tmp_path, ttl=60, owner="rival")
        assert rival.acquire(KEY) is None
        assert rival.reclaimed == 0
        heir = LeaseBroker(tmp_path, ttl=0.05, owner="heir")
        assert heir.acquire("d" * 64) is not None
        assert heir.reclaimed == 1

    def test_default_ttl_is_generous(self):
        assert DEFAULT_TTL_SECONDS >= 60
