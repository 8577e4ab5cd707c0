//! The fabric fork: everything that differs between the paper's two
//! back-to-back hosts and a switched fabric lives here, and the rest
//! of the datapath asks these helpers instead of matching on the
//! fabric itself.
//!
//! In a switched world every PDU crosses two hops, each with its own
//! credit loop (hop-by-hop flow control, after Kosak et al.):
//!
//! 1. **Host → switch.** The sender spends its adapter's per-VC
//!    credits and hands the PDU to [`World::launch`], which schedules
//!    [`Event::SwitchIngress`] at the end of the uplink wire time. The
//!    ingress handler buffers the PDU in the routed output port(s) and
//!    returns the hop-1 credits to the sender.
//! 2. **Switch → host.** [`Event::PortDrain`] dispatches the head of
//!    an output port's FIFO when the egress link is free and the
//!    `(port, VC)` credit ledger covers the PDU's cells; the final
//!    arrival at the destination host returns those credits (see
//!    [`World::return_last_hop_credits`]). A credit-stalled head
//!    blocks its whole port, which preserves per-VC FIFO order across
//!    the hop.
//!
//! In a passthrough world there is one hop: `launch` schedules the
//! arrival at the peer directly, and the arrival returns the sender's
//! credits.
//!
//! Contention is therefore visible in two places: fan-in queueing in
//! the output-port FIFOs (depth counters) and credit stalls on the
//! egress hop (stall counters), both rolled up in
//! [`genie_net::SwitchStats`].

use std::collections::VecDeque;

use genie_machine::{Op, SimTime};
use genie_net::{SwitchedPdu, Vc};

use crate::error::GenieError;
use crate::world::{Event, FabricState, HostId, World};

impl World {
    /// Refuses a send the fabric cannot carry: a switched world needs
    /// a routing-table entry for `(from, vc)`. Any VC crosses the
    /// passthrough wire.
    pub(crate) fn check_route(&self, from: HostId, vc: Vc) -> Result<(), GenieError> {
        match &self.fabric {
            FabricState::Switched(sw) if sw.route(from.0, vc.0).is_empty() => {
                Err(GenieError::NoRoute {
                    host: from.0,
                    vc: vc.0,
                })
            }
            _ => Ok(()),
        }
    }

    /// Puts a PDU on its first hop: the only builder of the first-hop
    /// event. It arrives at `pdu.ingress_at` — at the peer's adapter in
    /// a passthrough world, at the switch's ingress otherwise. A `None`
    /// payload is a damaged PDU.
    pub(crate) fn launch(&mut self, pdu: SwitchedPdu) {
        let at = pdu.ingress_at;
        let ev = match self.fabric {
            FabricState::Passthrough => Event::Arrive {
                to: HostId(pdu.src).peer(),
                vc: Vc(pdu.vc),
                cells: pdu.cells(),
                pdu: pdu.payload,
                sent_at: pdu.sent_at,
                token: pdu.token,
            },
            FabricState::Switched(_) => Event::SwitchIngress { pdu },
        };
        self.events.push(at, ev);
    }

    /// Charges the receiving device's fixed cost for a PDU `from`
    /// launches, returning its delay. It belongs to whoever faces the
    /// destination host: the sender's hop in a passthrough world, the
    /// switch's egress hop (`on_port_drain`) otherwise.
    pub(crate) fn first_hop_dev_rx(&mut self, from: HostId) -> SimTime {
        match self.fabric {
            FabricState::Passthrough => {
                self.hosts[from.peer().idx()].charge_overlapped(Op::DeviceFixedRecv, 0, 0)
            }
            FabricState::Switched(_) => SimTime::ZERO,
        }
    }

    /// The wire-span label of `from`'s uplink.
    pub(crate) fn uplink_label(&self, from: HostId) -> &'static str {
        match (&self.fabric, from) {
            (FabricState::Switched(_), _) => "wire host\u{2192}switch",
            (FabricState::Passthrough, HostId::A) => "wire A\u{2192}B",
            (FabricState::Passthrough, _) => "wire B\u{2192}A",
        }
    }

    /// A PDU's cells drained `to`'s receive buffers: return the last
    /// hop's credits and wake whoever was stalled on them — the peer's
    /// transmit queue in a passthrough world, the switch's egress port
    /// otherwise. The credit-return message crosses the wire back
    /// before it can wake anyone.
    pub(crate) fn return_last_hop_credits(
        &mut self,
        time: SimTime,
        to: HostId,
        vc: Vc,
        cells: usize,
    ) {
        let wake = time + self.link.fixed_latency;
        match &mut self.fabric {
            FabricState::Passthrough => {
                let sender = to.peer();
                self.hosts[sender.idx()]
                    .adapter
                    .return_credits(vc, cells as u32);
                self.wake_txq(wake, sender, vc);
            }
            FabricState::Switched(sw) => {
                sw.return_credits(to.0, vc.0, cells as u32);
                if sw.queue_len(to.0) > 0 {
                    self.events.push(wake, Event::PortDrain { port: to.0 });
                }
            }
        }
    }

    /// Wakes `host`'s transmit queue on `vc` at `at` if a PDU waits
    /// there.
    pub(crate) fn wake_txq(&mut self, at: SimTime, host: HostId, vc: Vc) {
        if let Some(&front) = self.txq[host.idx()]
            .get(u64::from(vc.0))
            .and_then(VecDeque::front)
        {
            self.events.push(at, Event::Transmit { token: front });
        }
    }

    /// A PDU (or damaged-PDU marker) reached the switch: return hop-1
    /// credits to the sender, route, and buffer at the output port(s).
    pub(crate) fn on_switch_ingress(&mut self, time: SimTime, pdu: SwitchedPdu) {
        // The switch has buffered the cells, so the uplink credits go
        // back to the sender; the credit-return message crosses the
        // wire back before it can wake a stalled transmit queue.
        let (from, vc) = (HostId(pdu.src), Vc(pdu.vc));
        self.hosts[from.idx()]
            .adapter
            .return_credits(vc, pdu.cells() as u32);
        self.wake_txq(time + self.link.fixed_latency, from, vc);

        let FabricState::Switched(sw) = &mut self.fabric else {
            unreachable!("switch ingress event in a passthrough world");
        };
        // An idle port starts draining; a non-empty port already has a
        // drain pending (a stall retry or a credit-return wake), so one
        // event per busy spell is enough.
        let events = &mut self.events;
        let routed = sw.ingress(pdu, time, |port| {
            events.push(time, Event::PortDrain { port });
        });
        // `output` refuses unrouted VCs, so every PDU here has a route.
        assert!(routed, "no route from host {} on vc {}", from.0, vc.0);
    }

    /// Dispatch PDUs from an output port's FIFO onto its egress link
    /// until the queue empties or the head stalls on credit. The link
    /// serializes via `busy_until`, so draining greedily at one instant
    /// still spaces the wire times correctly.
    pub(crate) fn on_port_drain(&mut self, time: SimTime, port: u16) {
        loop {
            let FabricState::Switched(sw) = &mut self.fabric else {
                unreachable!("port drain event in a passthrough world");
            };
            let Some(head) = sw.front(port) else {
                return;
            };
            let (vc, cells, total) = (head.vc, head.cells(), head.total);
            assert!(
                cells as u32 <= sw.port_credit(),
                "PDU of {} cells can never clear port {}'s credit \
                 allotment of {} — the port would stall forever",
                cells,
                port,
                sw.port_credit()
            );
            if !sw.try_consume_credits(port, vc, cells as u32, time) {
                // Head-of-line stall: the whole port waits (which is
                // what keeps per-VC order intact across the hop).
                // Credit returns wake the port directly; this retry
                // covers starvation episodes with no returns coming.
                self.events
                    .push(time + SimTime::from_us(50.0), Event::PortDrain { port });
                return;
            }
            let pdu = sw.pop(port, time).expect("head just inspected");
            let wire_start = time.max(sw.busy_until(port));
            let wire_done = wire_start + self.link.wire_time(total);
            sw.set_busy_until(port, wire_done);

            let to = HostId(port);
            let dev_rx = self.hosts[to.idx()].charge_overlapped(Op::DeviceFixedRecv, 0, 0);
            let tracer = &mut self.hosts[to.idx()].tracer;
            if tracer.enabled() {
                tracer.set_flow(vc, pdu.seq);
                // Switch residency: queueing plus credit-stall time in
                // the output-port FIFO, from ingress to the moment the
                // egress wire starts serializing this PDU.
                tracer.span(
                    genie_trace::Track::Events,
                    "switch.residency",
                    pdu.ingress_at,
                    wire_start.saturating_sub(pdu.ingress_at),
                    total,
                    cells,
                );
                tracer.span(
                    genie_trace::Track::Wire,
                    "wire switch\u{2192}host",
                    wire_start,
                    wire_done.saturating_sub(wire_start),
                    total,
                    cells,
                );
                tracer.clear_flow();
            }
            self.events.push(
                wire_done + self.link.fixed_latency + dev_rx,
                Event::Arrive {
                    to,
                    vc: Vc(vc),
                    pdu: pdu.payload,
                    cells,
                    sent_at: pdu.sent_at,
                    token: pdu.token,
                },
            );
        }
    }
}
