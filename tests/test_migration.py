"""Durable-subscriber migration: the three-phase epoch-verified handoff.

Drives ``MigrateRequest → Offer → Install → Installed → Commit → Done``
both through the :class:`~repro.sim.supervisor.Supervisor` and by hand
(raw control messages with injected duplication, reordering and stale
replays), asserting the handlers' idempotence guarantees: a durable
subscription is never double-registered and its PFS-coverage cursor
never regresses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DurableSubscriber,
    Everything,
    In,
    Node,
    PeriodicPublisher,
    Scheduler,
    build_star,
)
from repro.adapters.sim import dial
from repro.core import messages as M
from repro.sim.supervisor import Supervisor


def _wait(sim, pred, timeout_ms=10_000.0, step_ms=10.0):
    deadline = sim.now + timeout_ms
    while sim.now < deadline:
        if pred():
            return True
        sim.run_until(sim.now + step_ms)
    return pred()


class Ctl:
    """A bare control client of one SHB (what the Supervisor is)."""

    def __init__(self, sim, shb, name):
        self.node = Node(sim, name)
        self.chan, shb_side = dial(self.node, shb, shb.costs.shb_client_recv_cost)
        shb.attach_client(shb_side)
        self.inbox = []
        self.chan.on_message(self.inbox.append)

    def send(self, msg):
        self.chan.send(msg)

    def take(self, kind):
        got = [m for m in self.inbox if isinstance(m, kind)]
        # In place: the link's receive callback holds this very list.
        self.inbox[:] = [m for m in self.inbox if not isinstance(m, kind)]
        return got


def _overlay(sim, n_shbs=2):
    overlay = build_star(sim, ["P1"], n_shbs)
    pub = PeriodicPublisher(sim, overlay.phb, "P1", 100.0,
                            attribute_fn=lambda i: {"group": i % 3})
    pub.start()
    return overlay, pub


class TestSupervisedHandoff:
    def test_happy_path_exactly_once(self):
        sim = Scheduler()
        overlay, pub = _overlay(sim)
        source, dest = overlay.shbs
        sub = DurableSubscriber(sim, "h1", Node(sim, "m-h1"), Everything(),
                                record_events=True, connect_retry_ms=300.0)
        sub.connect(source)
        sim.run_until(1_000.0)

        supervisor = Supervisor(overlay)
        handle = supervisor.migrate("h1", source, dest)

        def _rehome():
            if not sub.connected and sub.last_refusal is not None:
                sub.last_refusal = None
                sub.connect(dest)

        rehome = sim.every(200.0, _rehome)
        assert _wait(sim, lambda: handle.done)
        sim.run_until(sim.now + 2_000.0)
        pub.stop()
        sim.run_until(sim.now + 4_000.0)
        rehome.cancel()

        assert handle.phase == "commit" and handle.done
        assert "h1" not in source.registry
        assert "h1" in dest.registry
        assert source.meta_table.get("migrated_out:h1")[0] == dest.name
        assert sub.connected
        assert sub.stats.events == pub.published
        assert sub.duplicate_events == 0
        assert sub.stats.order_violations == 0

    def test_commit_pushes_refusal_to_live_client(self):
        """A client connected at the source when the commit lands is
        told its session is over (otherwise it would wedge silently)."""
        sim = Scheduler()
        overlay, pub = _overlay(sim)
        source, dest = overlay.shbs
        sub = DurableSubscriber(sim, "h2", Node(sim, "m-h2"), Everything(),
                                record_events=True, connect_retry_ms=300.0)
        sub.connect(source)
        sim.run_until(500.0)
        assert sub.connected

        supervisor = Supervisor(overlay)
        handle = supervisor.migrate("h2", source, dest)
        assert _wait(sim, lambda: handle.done)
        sim.run_until(sim.now + 200.0)
        pub.stop()
        assert not sub.connected or sub.last_refusal is not None
        assert sub.last_refusal is not None
        reason, redirect = sub.last_refusal
        assert reason in ("migrated", "migrating")
        if reason == "migrated":
            assert redirect == dest.name

    def test_source_redirects_reconnect_after_commit(self):
        sim = Scheduler()
        overlay, pub = _overlay(sim)
        source, dest = overlay.shbs
        sub = DurableSubscriber(sim, "h3", Node(sim, "m-h3"), Everything(),
                                connect_retry_ms=300.0)
        sub.connect(source)
        sim.run_until(500.0)
        sub.disconnect()

        supervisor = Supervisor(overlay)
        handle = supervisor.migrate("h3", source, dest)
        assert _wait(sim, lambda: handle.done)
        pub.stop()

        sub.connect(source)
        assert _wait(sim, lambda: sub.last_refusal is not None, 2_000.0)
        reason, redirect = sub.last_refusal
        assert reason == "migrated"
        assert redirect == dest.name

    def test_migrate_unknown_subscription_reports_not_found(self):
        sim = Scheduler()
        overlay, pub = _overlay(sim)
        supervisor = Supervisor(overlay)
        handle = supervisor.migrate("ghost", overlay.shbs[0], overlay.shbs[1])
        assert _wait(sim, lambda: handle.done)
        pub.stop()
        assert handle.done and not handle.found


class TestCoverageConfirmation:
    """MigrateInstalled is held until the refresh round-trips the root."""

    def _install_by_hand(self, sim, source, dest, ctl_src, ctl_dst, epoch):
        ctl_src.send(M.MigrateRequest("ho-1", "c1", epoch, dest.name))
        assert _wait(sim, lambda: any(
            isinstance(m, M.MigrateOffer) for m in ctl_src.inbox))
        offer = ctl_src.take(M.MigrateOffer)[0]
        assert offer.found
        ctl_dst.send(M.MigrateInstall(
            "ho-1", "c1", epoch, source=source.name,
            predicate=offer.predicate, released_ct=dict(offer.released_ct),
            jms_ct=dict(offer.jms_ct),
        ))
        return offer

    def test_installed_waits_for_root_ack_and_finalizes_pfs_from(self):
        sim = Scheduler()
        overlay, pub = _overlay(sim)
        source, dest = overlay.shbs
        sub = DurableSubscriber(sim, "c1", Node(sim, "m-c1"), Everything(),
                                connect_retry_ms=300.0)
        sub.connect(source)
        sim.run_until(1_000.0)
        sub.disconnect()

        ctl_src = Ctl(sim, source, "ctl-src")
        ctl_dst = Ctl(sim, dest, "ctl-dst")
        self._install_by_hand(sim, source, dest, ctl_src, ctl_dst, epoch=10_000)

        # The install is staged (row exists) but unconfirmed: the
        # durable finalization marker is absent and the ack withheld.
        # (1 ms polling: the root round trip takes >= 2 ms, so the
        # first poll that sees the row still sees the pending entry.)
        assert _wait(sim, lambda: "c1" in dest.registry, 1_000.0, step_ms=1.0)
        assert "c1" in dest._cover_pending
        assert dest.meta_table.get_committed("migrated_in:c1") is None
        assert not ctl_dst.take(M.MigrateInstalled)

        # A connect served now could trust PFS silence inside the
        # suspect span: it is parked, not refused, and answered only
        # once the root confirms the install (SubscriptionSynced).
        assert dest._connect_refusal("c1") is None
        cli = Ctl(sim, dest, "cli-c1")
        cli.send(M.ConnectRequest("c1", checkpoint=sub.ct.as_dict(), predicate=Everything()))
        provisional = dict(dest.registry.get("c1").pfs_from)
        assert _wait(sim, lambda: "c1" in dest._parked or "c1" not in dest._cover_pending,
                     10.0, step_ms=0.1)
        assert "c1" in dest._parked
        while "c1" in dest._cover_pending:
            assert not cli.take(M.ConnectAccept)
            sim.run_until(sim.now + 1.0)
        assert _wait(sim, lambda: any(
            isinstance(m, M.ConnectAccept) for m in cli.inbox))

        assert _wait(sim, lambda: any(
            isinstance(m, M.MigrateInstalled) for m in ctl_dst.inbox))
        confirmed_at = sim.now
        assert "c1" not in dest._cover_pending
        assert dest.meta_table.get_committed("migrated_in:c1") == 10_000
        final = dest.registry.get("c1").pfs_from
        for pubend, t in final.items():
            # Finalized at or past the provisional claim, up to the
            # ack's bound on what was hidden (never past the clock).
            assert t >= provisional.get(pubend, 0)
        assert final["P1"] <= int(confirmed_at)
        pub.stop()

    def test_duplicate_install_after_confirmation_reacks_immediately(self):
        sim = Scheduler()
        overlay, pub = _overlay(sim)
        source, dest = overlay.shbs
        sub = DurableSubscriber(sim, "c1", Node(sim, "m-c1"), Everything(),
                                connect_retry_ms=300.0)
        sub.connect(source)
        sim.run_until(1_000.0)
        sub.disconnect()

        ctl_src = Ctl(sim, source, "ctl-src")
        ctl_dst = Ctl(sim, dest, "ctl-dst")
        offer = self._install_by_hand(
            sim, source, dest, ctl_src, ctl_dst, epoch=10_000)
        assert _wait(sim, lambda: any(
            isinstance(m, M.MigrateInstalled) for m in ctl_dst.inbox))
        ctl_dst.take(M.MigrateInstalled)
        row = dest.registry.get("c1")
        num, pfs_from = row.num, dict(row.pfs_from)

        # A retried install of the confirmed handoff re-acks without
        # re-entering the confirmation round.
        ctl_dst.send(M.MigrateInstall(
            "ho-1", "c1", 10_000, source=source.name,
            predicate=offer.predicate, released_ct=dict(offer.released_ct),
            jms_ct=dict(offer.jms_ct),
        ))
        assert _wait(sim, lambda: any(
            isinstance(m, M.MigrateInstalled) for m in ctl_dst.inbox), 2_000.0)
        assert "c1" not in dest._cover_pending
        row = dest.registry.get("c1")
        assert row.num == num
        assert row.pfs_from == pfs_from
        pub.stop()


class TestIdempotence:
    @given(
        dup_request=st.integers(min_value=1, max_value=3),
        dup_install=st.integers(min_value=1, max_value=3),
        dup_commit=st.integers(min_value=1, max_value=3),
        replay_after_done=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_duplicated_and_replayed_messages_are_harmless(
        self, dup_request, dup_install, dup_commit, replay_after_done
    ):
        """However the network duplicates, redelivers or replays the
        handoff messages, the subscription ends owned exactly once and
        its PFS cursor only ever moves forward."""
        sim = Scheduler()
        overlay, pub = _overlay(sim)
        source, dest = overlay.shbs
        sub = DurableSubscriber(sim, "p1", Node(sim, "m-p1"),
                                In("group", [0, 1]), connect_retry_ms=300.0)
        sub.connect(source)
        sim.run_until(800.0)
        sub.disconnect()

        ctl_src = Ctl(sim, source, "ctl-src")
        ctl_dst = Ctl(sim, dest, "ctl-dst")
        epoch = 10_000

        request = M.MigrateRequest("ho-p", "p1", epoch, dest.name)
        for _ in range(dup_request):
            ctl_src.send(request)
        assert _wait(sim, lambda: any(
            isinstance(m, M.MigrateOffer) for m in ctl_src.inbox))
        offer = ctl_src.take(M.MigrateOffer)[0]

        install = M.MigrateInstall(
            "ho-p", "p1", epoch, source=source.name,
            predicate=offer.predicate, released_ct=dict(offer.released_ct),
            jms_ct=dict(offer.jms_ct),
        )
        pfs_floor: dict = {}
        for _ in range(dup_install):
            ctl_dst.send(install)
            sim.run_until(sim.now + 30.0)
            row = dest.registry.get("p1")
            if row is not None:
                for pubend, t in pfs_floor.items():
                    assert row.pfs_from.get(pubend, 0) >= t
                pfs_floor = dict(row.pfs_from)
        assert _wait(sim, lambda: any(
            isinstance(m, M.MigrateInstalled) for m in ctl_dst.inbox))

        commit = M.MigrateCommit("ho-p", "p1", epoch, dest.name)
        for _ in range(dup_commit):
            ctl_src.send(commit)
        assert _wait(sim, lambda: any(
            isinstance(m, M.MigrateDone) for m in ctl_src.inbox))

        if replay_after_done:
            ctl_src.send(request)
            ctl_dst.send(install)
            ctl_src.send(commit)
            sim.run_until(sim.now + 500.0)

        pub.stop()
        sim.run_until(sim.now + 500.0)

        # Exactly one owner; never double-registered.
        assert "p1" not in source.registry
        rows = [s for s in dest.registry.all() if s.sub_id == "p1"]
        assert len(rows) == 1
        # The PFS cursor never regressed below any earlier observation.
        for pubend, t in pfs_floor.items():
            assert rows[0].pfs_from.get(pubend, 0) >= t
        assert source.meta_table.get("migrated_out:p1")[0] == dest.name

    def test_stale_epoch_replay_after_remigration_is_dropped(self):
        """A→B then B→A; a replay of the first handoff's install at B
        (stale epoch) must not resurrect B's ownership."""
        sim = Scheduler()
        overlay, pub = _overlay(sim)
        a, b = overlay.shbs
        sub = DurableSubscriber(sim, "r1", Node(sim, "m-r1"), Everything(),
                                connect_retry_ms=300.0)
        sub.connect(a)
        sim.run_until(800.0)
        sub.disconnect()

        supervisor = Supervisor(overlay)
        first = supervisor.migrate("r1", a, b)
        assert _wait(sim, lambda: first.done)
        stale_install = M.MigrateInstall(
            first.handoff_id, "r1", first.epoch, source=a.name,
            predicate=first.offer.predicate,
            released_ct=dict(first.offer.released_ct),
            jms_ct=dict(first.offer.jms_ct),
        )
        second = supervisor.migrate("r1", b, a)
        assert _wait(sim, lambda: second.done)
        assert "r1" in a.registry and "r1" not in b.registry

        ctl_b = Ctl(sim, b, "ctl-b")
        ctl_b.send(stale_install)
        sim.run_until(sim.now + 1_000.0)
        pub.stop()

        assert "r1" not in b.registry
        assert "r1" in a.registry
        assert not ctl_b.take(M.MigrateInstalled)
