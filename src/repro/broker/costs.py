"""CPU cost model for simulated brokers and client machines.

The paper's quantitative results are throughput/latency consequences of
where CPU and disk time is spent.  This module centralizes the per-
operation service costs (in milliseconds of simulated CPU) charged to
:class:`~repro.net.node.Node` queues.

Calibration targets (see DESIGN.md §3):

* an SHB delivering to ~100 subscribers at 200 ev/s each saturates
  near the paper's 20K events/s — dominated by ``deliver_event_ms``,
* the PHB sits around 70% idle with 1 SHB and ~55–60% with 4
  (publish logging CPU + per-link dissemination),
* client machines comfortably sustain 1600 ev/s with headroom for the
  ~2–3x bursts during catchup (Figure 8).

The constants are deliberately simple: one number per operation class,
no per-byte terms except where the paper's effects need them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import messages as M


@dataclass(frozen=True)
class CostModel:
    """Per-operation CPU service costs, in milliseconds."""

    # --- broker-to-broker message receive costs -----------------------
    knowledge_base_ms: float = 0.02
    knowledge_per_event_ms: float = 0.012
    nack_ms: float = 0.05
    release_ms: float = 0.02
    subscription_ms: float = 0.05

    # --- PHB operations ------------------------------------------------
    publish_ms: float = 0.32          # accept + log-staging CPU per event
    serve_nack_per_event_ms: float = 0.004
    forward_per_link_event_ms: float = 0.06

    # --- SHB operations ------------------------------------------------
    deliver_event_ms: float = 0.0475  # enqueue one event to one subscriber
    #: Delivery through a *catchup* stream costs more than through the
    #: consolidated stream — each catchup subscriber runs its own
    #: knowledge/curiosity machinery.  The paper measures the effect
    #: directly: "the SHB rate reduces to about 10K events/s when all
    #: subscribers have a separate catchup stream (compared to 20K
    #: events/s with only the constream)".
    catchup_deliver_event_ms: float = 0.08
    deliver_control_ms: float = 0.01  # silence/gap enqueue
    pfs_write_cpu_ms: float = 0.005   # CPU part of one PFS record write
    client_ack_ms: float = 0.01
    client_connect_ms: float = 0.5

    # --- client machine operations --------------------------------------
    client_recv_event_ms: float = 0.08
    client_recv_control_ms: float = 0.01
    client_send_ms: float = 0.01

    def broker_recv_cost(self, msg: object) -> float:
        """Receive-side CPU cost of a broker-to-broker message."""
        if isinstance(msg, M.KnowledgeUpdate):
            return self.knowledge_base_ms + self.knowledge_per_event_ms * len(msg.d_events)
        if isinstance(msg, M.Nack):
            return self.nack_ms
        if isinstance(msg, M.ReleaseUpdate):
            return self.release_ms
        if isinstance(msg, M.SubscriptionAdd):
            return self.subscription_ms
        if isinstance(msg, M.SubscriptionSync):
            # A full set costs what its predicates would as adds.
            return 0.02 + self.subscription_ms * len(msg.predicates)
        return 0.02

    def shb_client_recv_cost(self, msg: object) -> float:
        """SHB-side CPU cost of a message arriving from a client."""
        if isinstance(msg, M.AckCheckpoint):
            return self.client_ack_ms
        if isinstance(msg, (M.ConnectRequest, M.DisconnectRequest)):
            return self.client_connect_ms
        return 0.02

    def phb_publisher_recv_cost(self, msg: object) -> float:
        """PHB-side CPU cost of a message arriving from a publisher."""
        if isinstance(msg, M.PublishRequest):
            return self.publish_ms
        return 0.02

    def client_recv_cost(self, msg: object) -> float:
        """Client-machine CPU cost of a message from its broker."""
        if isinstance(msg, M.EventMessage):
            return self.client_recv_event_ms
        return self.client_recv_control_ms


#: The default calibration used by all experiments.
DEFAULT_COSTS = CostModel()
