"""Pinned regressions for bugs the crash-point explorer flushed out.

Each of the three bugs below was found by `repro.sim.crashpoints`
as a silent-loss oracle violation, diagnosed, and fixed; the unit
tests pin the fixed mechanism and the end-to-end tests replay the
exact crash boundaries that exposed them.

1. **Nack replies union-filtered against not-yet-registered
   subscriptions.**  A nack carrying ``refilter_below`` is (partly) on
   behalf of a subscription the upstream union may not include yet —
   a reconnect-anywhere registration, or a re-registration racing
   nacks already in flight through the SHB's consolidator after the
   SHB lost its registry in a crash.  The PHB (and the intermediate
   relay) converted those D events to S, which the catchup stream
   trusted as "nothing matched here": silent loss.  Fix: honor
   ``refilter_below`` at every serve point.

2. **PFS silence trusted below the registration cursor.**  A
   subscription re-created after a registry-losing crash enters the
   matching engine at the current delivery cursor; PFS records below
   that point were matched without it, so "no record ⇒ silence" is
   meaningless there.  Fix: persist the per-pubend registration cursor
   (``pfs_from``) in the subscription row and refilter below it on any
   reconnect whose CT is older.

3. **Empty-registry refresh emptied the upstream union.**  A recovered
   SHB whose registry rows died uncommitted sent an authoritative
   epoch refresh with zero subscriptions; the PHB replaced its warm
   union with nothing and converted every live D tick to S during the
   window before clients re-registered.  Fix: detect the loss (the
   recovered PFS references subscriber nums the registry cannot name),
   hold union refreshes and release reports while suspect, and clear
   once re-registrations cover every PFS-referenced num.
"""

import pytest

from repro.broker.phb import PublisherHostingBroker
from repro.broker.topology import build_two_broker
from repro.client.subscriber import DurableSubscriber
from repro.core import messages as M
from repro.core.events import Event
from repro.core.subscription import SubscriptionError, SubscriptionRegistry
from repro.matching.predicates import Eq, In
from repro.net.node import Node
from repro.net.simtime import Scheduler
from repro.sim import crashpoints as cp
from repro.sim.failures import FailureSchedule
from repro.storage.table import PersistentTable


@pytest.fixture(scope="module")
def census_points():
    return cp.census()


def _first_point(census, site, owner, ordinal=0):
    group = [p for p in census if p.site == site and p.owner == owner]
    assert len(group) > ordinal, f"no firing #{ordinal} of {site}@{owner}"
    return group[ordinal]


# ---------------------------------------------------------------------------
# Bug 1: refilter_below honored when serving nacks
# ---------------------------------------------------------------------------
class TestNackRefilterBelowHonored:
    def _phb_with_child(self):
        sim = Scheduler()
        phb = PublisherHostingBroker(sim, "phb")
        from repro.broker.base import Broker
        from repro.broker.intermediate import IntermediateBroker

        Broker.connect(phb, IntermediateBroker(sim, "c1"))
        phb._handle_from_child("c1", M.SubscriptionAdd(Eq("group", 0)))
        return phb

    def _update(self):
        update = M.KnowledgeUpdate("P1")
        update.d_events = [
            Event("P1", 5, {"group": 2}),
            Event("P1", 50, {"group": 2}),
        ]
        return update

    def test_d_events_below_keep_below_pass_unfiltered(self):
        phb = self._phb_with_child()
        out = phb._link_filter(self._update()).for_child("c1", keep_below=10)
        # Tick 5 is below the refilter boundary: the requesting
        # subscription may not be in the union yet, so the event must
        # travel even though the union matches nothing at it.  Tick 50
        # is above the boundary and is filtered normally.
        assert [e.timestamp for e in out.d_events] == [5]
        assert (50, 50) in [tuple(r) for r in out.s_ranges]

    def test_without_keep_below_both_filtered(self):
        phb = self._phb_with_child()
        out = phb._link_filter(self._update()).for_child("c1")
        assert out.d_events == []

    def test_serve_path_threads_refilter_below(self, census_points):
        # End to end: crash the SHB's store disk mid-sync before the
        # first table commit — registry and tables are lost, clients
        # re-register mid-flight, and their first nack window races the
        # re-registration through the consolidator.  Pre-fix this lost
        # the un-registered groups' events silently.
        point = _first_point(census_points, "disk.sync.begin", "shb1")
        outcome = cp._explore_one(point, down_ms=450.0, grace_ms=20_000.0)
        assert outcome.ok, outcome.violations


# ---------------------------------------------------------------------------
# Bug 2: pfs_from persisted and enforced on reconnect
# ---------------------------------------------------------------------------
class TestPfsFromRegistrationCursor:
    def test_pfs_from_survives_commit_and_reload(self):
        subs = PersistentTable("subs")
        released = PersistentTable("released")
        registry = SubscriptionRegistry(subs, released)
        registry.create("s1", Eq("g", 1), pfs_from={"P1": 42})
        registry.commit()

        reloaded = SubscriptionRegistry(subs, released)
        sub = reloaded.get("s1")
        assert sub is not None
        assert sub.pfs_from == {"P1": 42}

    def test_row_of_another_arity_fails_loudly(self):
        for row in [(7, Eq("g", 1)), (7, Eq("g", 1), {}, 0)]:
            subs = PersistentTable("subs")
            subs.put("odd", row)
            subs.commit()
            with pytest.raises(SubscriptionError, match="odd"):
                SubscriptionRegistry(subs, PersistentTable("released"))

    def test_registration_covers_only_above_existing_pfs_records(self):
        # During a recovery replay the PFS can be ahead of the delivery
        # cursor, and its records were written under the old life's num
        # assignment; a subscription created in that window must not
        # trust them.
        sim = Scheduler()
        overlay = build_two_broker(sim, pubends=["P1"])
        shb = overlay.shbs[0]
        shb.pfs.write("P1", 500, [7])  # old-life record, cursor still 0
        sub = DurableSubscriber(
            sim, "late", Node(sim, "m-late"), Eq("group", 0), record_events=True
        )
        sub.connect(shb)
        sim.run_until(10.0)
        assert shb.registry.get("late").pfs_from["P1"] == 500

    def test_reconnect_below_registration_cursor_recovers(self, census_points):
        # End to end: the registry-losing crash re-creates xp-s2's row
        # at the post-recovery cursor; its next reconnect presents a CT
        # from *before* the crash.  Pre-fix the catchup trusted PFS
        # silence across the replayed span and lost it.
        point = _first_point(census_points, "table.commit.pre", "shb1")
        outcome = cp._explore_one(point, down_ms=450.0, grace_ms=20_000.0)
        assert outcome.ok, outcome.violations


# ---------------------------------------------------------------------------
# Bug 3: suspect-registry mode after a registry-losing crash
# ---------------------------------------------------------------------------
class TestSuspectRegistryMode:
    def _overlay(self):
        sim = Scheduler()
        overlay = build_two_broker(sim, pubends=["P1"])
        shb = overlay.shbs[0]
        subscriber = DurableSubscriber(
            sim, "s1", Node(sim, "m1"), In("group", [0, 1]),
            record_events=True, connect_retry_ms=200.0,
        )
        subscriber.connect(shb)
        for i in range(30):
            sim.at(5.0 + 5.0 * i, lambda i=i: overlay.phb.publish(
                "P1", {"group": i % 2}
            ))
        return sim, overlay, shb, subscriber

    def test_registry_loss_detected_and_events_recovered(self):
        sim, overlay, shb, subscriber = self._overlay()
        schedule = FailureSchedule(sim)
        # Crash before the first 250 ms table commit: the registry row
        # dies uncommitted, but PFS records (durable after ~33 ms disk
        # syncs) survive and reference the lost subscription's num.
        sim.at(150.0, lambda: schedule.crash_now(shb, 100.0))
        sim.run_until(300.0)

        assert shb.registry_suspect is True
        assert len(shb.registry) == 0
        # The recovered SHB's refresh narrows the parent's union to what
        # it still hosts, so live D ticks for the lost subscription turn
        # into silence.  Its reconnect registers it again and refilters
        # from its CT up to the confirmation: nothing is lost.
        subscriber.connect(shb)
        sim.run_until(2_000.0)
        assert shb.registry_suspect is False
        assert subscriber.stats.events == 30
        assert subscriber.duplicate_events == 0
        assert subscriber.stats.order_violations == 0

    def test_suspect_clears_on_reregistration(self):
        sim, overlay, shb, subscriber = self._overlay()
        schedule = FailureSchedule(sim)
        sim.at(150.0, lambda: schedule.crash_now(shb, 100.0))
        sim.at(400.0, lambda: (
            subscriber.connect(shb) if not subscriber.connected else None
        ))
        sim.run_until(1000.0)

        assert shb.registry_suspect is False
        assert len(shb.registry) == 1
        assert subscriber.connected

    def test_release_held_while_suspect(self):
        sim, overlay, shb, _subscriber = self._overlay()
        sim.run_until(50.0)
        sent = []
        shb.send_up = lambda msg: sent.append(msg)

        shb.registry_suspect = True
        shb._refresh_upstream()
        shb._report_release()
        assert {type(m) for m in sent} == {M.SubscriptionSync}

        shb.registry_suspect = False
        shb._report_release()
        assert M.ReleaseUpdate in {type(m) for m in sent}

    def test_live_dissemination_during_recovery_window(self, census_points):
        # End to end: crash at a pfs.write_batch boundary ~174 ms in
        # (after PFS records are durable, before the first registry
        # commit).  Pre-fix, the recovered SHB's count-0 epoch refresh
        # emptied the PHB union and live events disseminated as S while
        # clients were still reconnecting — accepted as final silence.
        point = _first_point(census_points, "pfs.write_batch.pre", "shb1", ordinal=16)
        outcome = cp._explore_one(point, down_ms=450.0, grace_ms=20_000.0)
        assert outcome.ok, outcome.violations
