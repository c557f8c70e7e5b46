"""JMS-style durable subscription sessions.

The paper implements "JMS durable subscriptions on top of our model":
the difference from the native model is that the messaging system (the
SHB) stores the subscriber's CT, updated transactionally as the client
commits consumption.  This module provides the client half:

* :data:`AUTO_ACKNOWLEDGE` — every consumed event message commits the
  CT before the next message is consumed (the paper calls this "the
  most severe" mode; Section 5.2 measures it),
* :data:`DUPS_OK_ACKNOWLEDGE` — commits lazily every
  ``dups_ok_batch`` messages (fewer transactions, possible duplicates
  on failure),
* :data:`CLIENT_ACKNOWLEDGE` — the application calls
  :meth:`JMSDurableSubscriber.acknowledge`,
* :data:`SESSION_TRANSACTED` — the application calls
  :meth:`JMSDurableSubscriber.commit_transaction`.

Messages queue client-side while a commit is outstanding, so measured
consumption throughput is bounded by the SHB's CT-commit throughput —
the effect the JMS benchmark quantifies.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..core import messages as M
from ..client.subscriber import DurableSubscriber
from ..matching.predicates import Predicate
from .messages import JMSCommitDone, JMSCommitRequest, JMSCTLookup, JMSCTLookupReply
from ..port.clock import Clock
from ..port.executor import Executor

AUTO_ACKNOWLEDGE = "auto"
DUPS_OK_ACKNOWLEDGE = "dups_ok"
CLIENT_ACKNOWLEDGE = "client"
SESSION_TRANSACTED = "transacted"

_MODES = (AUTO_ACKNOWLEDGE, DUPS_OK_ACKNOWLEDGE, CLIENT_ACKNOWLEDGE, SESSION_TRANSACTED)


class JMSDurableSubscriber(DurableSubscriber):
    """A durable subscriber whose CT lives at the SHB (JMS semantics)."""

    def __init__(
        self,
        scheduler: Clock,
        sub_id: str,
        node: Executor,
        predicate: Predicate,
        ack_mode: str = AUTO_ACKNOWLEDGE,
        dups_ok_batch: int = 20,
        on_message: Optional[Callable[[M.EventMessage], None]] = None,
    ) -> None:
        if ack_mode not in _MODES:
            raise ValueError(f"unknown ack mode {ack_mode!r}")
        # The native periodic CT ack still runs (it is harmless and
        # keeps release state fresh between commits).
        super().__init__(scheduler, sub_id, node, predicate, ack_interval_ms=250.0)
        self.ack_mode = ack_mode
        self.dups_ok_batch = dups_ok_batch
        self.on_message = on_message
        self._inbox: Deque[object] = deque()
        self._awaiting_commit = False
        self._next_request_id = 0
        self._uncommitted = 0
        self.commits_completed = 0
        self.events_consumed = 0

    # ------------------------------------------------------------------
    # Message intake: queue, then consume gated by commits
    # ------------------------------------------------------------------
    def _on_message(self, msg: object) -> None:
        if isinstance(msg, M.ConnectAccept):
            self._on_accept(msg)
        elif isinstance(msg, JMSCommitDone):
            self._on_commit_done(msg)
        elif isinstance(msg, JMSCTLookupReply):
            self._on_lookup_reply(msg)
        elif isinstance(msg, (M.EventMessage, M.SilenceMessage, M.GapMessage)):
            self._inbox.append(msg)
            self._pump_consume()

    def _pump_consume(self) -> None:
        while self._inbox and not self._awaiting_commit:
            msg = self._inbox.popleft()
            if isinstance(msg, M.EventMessage):
                self._consume_event(msg)
                self.events_consumed += 1
                self._uncommitted += 1
                if self.on_message is not None:
                    self.on_message(msg)
                if self.ack_mode == AUTO_ACKNOWLEDGE:
                    self._send_commit()
                elif self.ack_mode == DUPS_OK_ACKNOWLEDGE and self._uncommitted >= self.dups_ok_batch:
                    self._send_commit()
            elif isinstance(msg, M.SilenceMessage):
                self._consume_marker(msg.pubend, msg.t, is_gap=False)
            else:
                assert isinstance(msg, M.GapMessage)
                self._consume_marker(msg.pubend, msg.t, is_gap=True)

    # ------------------------------------------------------------------
    # Commits
    # ------------------------------------------------------------------
    def acknowledge(self) -> None:
        """CLIENT_ACKNOWLEDGE: commit everything consumed so far."""
        if self.ack_mode != CLIENT_ACKNOWLEDGE:
            raise ValueError("acknowledge() only valid in CLIENT_ACKNOWLEDGE mode")
        self._send_commit()

    def commit_transaction(self) -> None:
        """SESSION_TRANSACTED: commit the consumption transaction."""
        if self.ack_mode != SESSION_TRANSACTED:
            raise ValueError("commit_transaction() only valid in SESSION_TRANSACTED mode")
        self._send_commit()

    def _send_commit(self) -> None:
        if not self.connected:
            return
        self._awaiting_commit = True
        self._uncommitted = 0
        self._next_request_id += 1
        self._send.send(
            JMSCommitRequest(self.sub_id, self.ct.as_dict(), self._next_request_id)
        )

    def _on_commit_done(self, msg: JMSCommitDone) -> None:
        if msg.request_id != self._next_request_id:
            return  # stale completion from before a reconnect
        self._awaiting_commit = False
        self.committed_ct = self.ct.copy()
        self.commits_completed += 1
        self._pump_consume()

    # ------------------------------------------------------------------
    # Reconnect: recover the CT from the SHB
    # ------------------------------------------------------------------
    def lookup_ct(self) -> None:
        """Ask the SHB for the stored CT (call after connect, before
        relying on local state after a client crash)."""
        if not self.connected:
            return
        self._next_request_id += 1
        self._send.send(JMSCTLookup(self.sub_id, self._next_request_id))

    def _on_lookup_reply(self, msg: JMSCTLookupReply) -> None:
        if msg.checkpoint:
            for pubend, t in msg.checkpoint.items():
                if t > self.ct.get(pubend, -1):
                    self.ct.advance(pubend, t)
            self.committed_ct = self.ct.copy()

    def crash(self) -> None:
        """A JMS client crash also abandons any in-flight commit."""
        super().crash()
        self._awaiting_commit = False
        self._inbox.clear()
