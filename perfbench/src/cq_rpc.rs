//! `cq_rpc`: request/response through completion queues under faults.
//!
//! An 8-host star over an 800 µs campus wire: 7 clients send 256 B
//! requests to the hub, which echoes one response per request. Every
//! host drives a `QueuePair`; clients run a closed loop whose
//! concurrency is their adaptive (AIMD) window, and the world runs
//! under `FaultConfig::masked(seed)`, so cells are lost, corrupted and
//! reordered and the retransmit path recovers them. An op is one
//! submit → run → harvest → poll round. Every host both sends and
//! receives, and `World::run` is called many short times: the CQ layer
//! and the fault hooks are busy only here.

use std::collections::HashMap;
use std::time::Instant;

use genie::cq::{AdaptiveConfig, CqConfig, CqResult, Landing, QueuePair, Sqe, SqeOp};
use genie::{Allocation, Cqe, HostId, Semantics, World, WorldConfig};
use genie_fault::FaultConfig;
use genie_machine::{MachineSpec, SimTime};
use genie_net::{SwitchConfig, Vc};
use genie_vm::SpaceId;

use crate::check::{add_world_counters, bytes_match, digest_world, Counters, Digest, Failure};
use crate::layer::{self, tag};
use crate::span;
use crate::workload::{Rep, Rng};

/// Client hosts (the star has one more port, the hub's).
pub const CLIENTS: u16 = 7;
/// Request and response size.
pub const BYTES: usize = 256;
/// Requests per client per repetition (the first is the warm-up).
pub const REQUESTS: usize = 24;
/// Largest adaptive window.
pub const MAX_WINDOW: usize = 8;
/// One-way fixed wire latency, µs.
pub const WIRE_US: f64 = 800.0;
/// One datagram in this many is byte-checked.
pub const VERIFY_ONE_IN: u64 = 4;
const VC_BASE: u32 = 700;
const PORTS: u16 = CLIENTS + 1;

fn req_vc(i: u16) -> Vc {
    Vc(VC_BASE + u32::from(i))
}

fn rsp_vc(i: u16) -> Vc {
    Vc(VC_BASE + u32::from(PORTS) + u32::from(i))
}

fn tag_of(i: u16, k: usize) -> u64 {
    (u64::from(i) << 32) | k as u64
}

fn untag(t: u64) -> (u16, usize) {
    ((t >> 32) as u16, t as u32 as usize)
}

struct Rpc {
    sem: Semantics,
    w: World,
    procs: Vec<SpaceId>,
    /// Queue pair 0 is the hub's; 1..=CLIENTS are the clients'.
    qps: Vec<QueuePair>,
    seed: u64,
    /// Request payloads per client, response payloads per client.
    req: Vec<Vec<u8>>,
    rsp: Vec<Vec<u8>>,
    /// Next request index and requests awaiting a response, per client.
    next: Vec<usize>,
    outstanding: Vec<usize>,
    /// Send buffers of application-allocated semantics, freed when
    /// their send completes: (host, tag) → vaddr.
    srcs: HashMap<(u16, u64), u64>,
    answered: usize,
    sends_done: usize,
    latency_sum: u64,
    sends: u64,
}

impl Rpc {
    fn build(sem: Semantics, seed: u64) -> Rpc {
        let sw = SwitchConfig::star(PORTS, 0, VC_BASE, 128);
        let mut cfg = WorldConfig::switched(MachineSpec::micron_p166(), usize::from(PORTS), sw);
        cfg.fault = FaultConfig::masked(seed);
        cfg.link.fixed_latency = SimTime::from_us(WIRE_US);
        let (w, procs) = layer::world_new(cfg);
        let total = usize::from(CLIENTS) * REQUESTS;
        let mut qps = Vec::with_capacity(usize::from(PORTS));
        qps.push(QueuePair::new(
            HostId(0),
            sem,
            CqConfig {
                sq_depth: 4 * total,
                cq_depth: 64,
                window: AdaptiveConfig::fixed(total),
            },
        ));
        for i in 1..=CLIENTS {
            qps.push(QueuePair::new(
                HostId(i),
                sem,
                CqConfig {
                    sq_depth: 4 * MAX_WINDOW,
                    cq_depth: 64,
                    window: AdaptiveConfig::adaptive(MAX_WINDOW, seed ^ u64::from(i)),
                },
            ));
        }
        let (req, rsp) = {
            let _g = span::enter("bench.payloads", span::NO_TAG);
            let mut rng = Rng::new(seed, 4);
            let mut make = || (0..PORTS).map(|_| rng.bytes(BYTES)).collect::<Vec<_>>();
            (make(), make())
        };
        Rpc {
            sem,
            w,
            procs,
            qps,
            seed,
            req,
            rsp,
            next: vec![0; usize::from(PORTS)],
            outstanding: vec![0; usize::from(PORTS)],
            srcs: HashMap::new(),
            answered: 0,
            sends_done: 0,
            latency_sum: 0,
            sends: 0,
        }
    }

    fn verify(&self, t: u64, response: bool) -> bool {
        Rng::new(self.seed, t ^ (u64::from(response) << 63)).below(VERIFY_ONE_IN) == 0
    }

    /// Posts a receive for one datagram on `vc` at `host`.
    fn post_recv(&mut self, host: u16, vc: Vc, t: u64) -> Result<(), Failure> {
        let space = self.procs[usize::from(host)];
        let buffer = layer::recv_buffer(&mut self.w, HostId(host), space, self.sem, vc, BYTES)?;
        let op = SqeOp::PostRecv {
            vc,
            space,
            buffer,
            len: BYTES,
        };
        self.post(host, Sqe { user_data: t, op })
    }

    /// Writes client `client`'s request (or, from the hub, its
    /// response) into a fresh send buffer and posts the send.
    fn post_send(&mut self, host: u16, vc: Vc, t: u64, client: usize) -> Result<(), Failure> {
        let (h, space) = (HostId(host), self.procs[usize::from(host)]);
        let vaddr = layer::send_buffer(&mut self.w, h, space, self.sem, BYTES)?;
        if self.sem.allocation() == Allocation::Application {
            self.srcs.insert((host, t), vaddr);
        }
        let payload = if host == 0 {
            &self.rsp[client]
        } else {
            &self.req[client]
        };
        layer::app_write(&mut self.w, h, space, vaddr, payload)?;
        let op = SqeOp::Send {
            vc,
            space,
            vaddr,
            len: BYTES,
        };
        self.sends += 1;
        self.post(host, Sqe { user_data: t, op })
    }

    fn post(&mut self, host: u16, sqe: Sqe) -> Result<(), Failure> {
        layer::post(&mut self.qps[usize::from(host)], sqe)
            .map_err(|_| Failure::Delivery(format!("host {host}: submission queue full")))
    }

    /// Handles one completion on `host`'s queue pair.
    fn complete(&mut self, host: u16, c: Cqe) -> Result<(), Failure> {
        let sem = self.sem;
        if c.result != CqResult::Ok {
            return Err(Failure::Delivery(format!(
                "{sem} host {host}: error completion {c:?}"
            )));
        }
        let (i, k) = untag(c.user_data);
        match c.landing {
            Landing::Delivered {
                space,
                vaddr,
                region,
                latency,
                ..
            } => {
                if c.len != BYTES {
                    return Err(Failure::Delivery(format!(
                        "{sem} client {i} message {k}: {} B delivered",
                        c.len
                    )));
                }
                let response = host != 0;
                if self.verify(c.user_data, response) {
                    let want = if response { &self.rsp } else { &self.req };
                    let want = &want[usize::from(i)];
                    bytes_match(
                        layer::app_matches(&mut self.w, HostId(host), space, vaddr, want),
                        || format!("{sem} client {i} message {k} delivered other bytes"),
                    )?;
                }
                match region {
                    Some(r) => layer::release_region(&mut self.w, HostId(host), r, sem)?,
                    None => layer::free_buffer(&mut self.w, HostId(host), space, vaddr)?,
                }
                self.latency_sum += latency.0;
                if response {
                    self.outstanding[usize::from(i)] -= 1;
                    self.answered += 1;
                } else {
                    // Echo a response on the star's reverse route.
                    self.post_send(0, rsp_vc(i), c.user_data, usize::from(i))?;
                }
            }
            Landing::Sent { .. } => {
                self.sends_done += 1;
                if let Some(v) = self.srcs.remove(&(host, c.user_data)) {
                    let space = self.procs[usize::from(host)];
                    layer::free_buffer(&mut self.w, HostId(host), space, v)?;
                }
            }
            Landing::None => {
                return Err(Failure::Delivery(format!(
                    "{sem} host {host}: completion without landing"
                )))
            }
        }
        Ok(())
    }

    /// Whether every client's requests up to `upto` were answered and
    /// every send completed.
    fn drained(&self, upto: usize) -> bool {
        let n = usize::from(CLIENTS);
        self.answered == n * upto && self.sends_done == 2 * n * upto
    }

    /// One op: clients top up to their window (issuing at most `upto`
    /// requests each), then submit → run → harvest → poll.
    fn round(&mut self, upto: usize) -> Result<(), Failure> {
        let _op = span::op(tag(self.sem));
        for i in 1..=CLIENTS {
            let ci = usize::from(i);
            while self.next[ci] < upto && self.outstanding[ci] < self.qps[ci].window_current() {
                let t = tag_of(i, self.next[ci]);
                self.next[ci] += 1;
                self.outstanding[ci] += 1;
                self.post_recv(0, req_vc(i), t)?;
                self.post_recv(i, rsp_vc(i), t)?;
                self.post_send(i, req_vc(i), t, ci)?;
            }
        }
        let mut progress = 0;
        for qp in &mut self.qps {
            progress += layer::submit(qp, &mut self.w);
        }
        layer::run(&mut self.w, self.sem);
        progress += layer::harvest(&mut self.w, &mut self.qps);
        for host in 0..PORTS {
            while let Some(c) = layer::poll(&mut self.qps[usize::from(host)]) {
                self.complete(host, c)?;
            }
        }
        if progress == 0 {
            return Err(Failure::Delivery(format!(
                "{} stalled: {} of {} answered",
                self.sem,
                self.answered,
                usize::from(CLIENTS) * upto
            )));
        }
        Ok(())
    }

    /// Rounds until every request up to `upto` is answered; each round
    /// is one op, timed into `op_ns` when given.
    fn drive(
        &mut self,
        upto: usize,
        mut op_ns: Option<&mut Vec<u64>>,
        attempted: &mut u64,
    ) -> Result<(), Failure> {
        while !self.drained(upto) {
            *attempted += 1;
            let t = Instant::now();
            self.round(upto)?;
            if let Some(ops) = op_ns.as_deref_mut() {
                ops.push(t.elapsed().as_nanos() as u64);
            }
        }
        Ok(())
    }
}

/// One repetition: for each semantics, build the star and queue pairs
/// and complete one warm-up request per client (set-up), then the
/// remaining `REQUESTS - 1` per client as timed rounds.
pub fn rep(seed: u64) -> Rep {
    let mut rep = Rep::default();
    let mut digest = Digest::default();
    let mut counters = Counters::new();
    for sem in Semantics::ALL {
        let t0 = Instant::now();
        let mut rpc = Rpc::build(sem, seed);
        let warm = rpc.drive(1, None, &mut rep.attempted);
        rep.setup += t0.elapsed();
        if let Err(f) = warm {
            rep.failures.push(f);
            continue;
        }
        let answered0 = rpc.answered;
        let t = Instant::now();
        let r = rpc.drive(REQUESTS, Some(&mut rep.op_ns), &mut rep.attempted);
        rep.timed += t.elapsed();
        if let Err(f) = r {
            rep.failures.push(f);
            continue;
        }
        // Requests and responses both count as delivered datagrams.
        rep.dgrams += 2 * (rpc.answered - answered0) as u64;
        rep.dgrams_by_sem[usize::from(tag(sem))] += 2 * rpc.answered as u64;
        digest_world(&mut digest, &rpc.w);
        digest.add(rpc.latency_sum);
        add_world_counters(&mut counters, &rpc.w);
        let mut add = |k: &'static str, v: u64| *counters.entry(k).or_default() += v;
        add("bench.sends", rpc.sends);
        for qp in &rpc.qps {
            add("cq.window_increases", qp.window().increases());
            add("cq.window_decreases", qp.window().decreases());
            add("cq.ring_overflows", qp.ring_overflows());
            add("cq.sq_rejects", qp.sq_rejects());
            add("cq.posted", qp.posted());
            add("cq.completed", qp.completed());
        }
        layer::world_drop(rpc.w);
    }
    rep.digest = digest.value();
    rep.counters = counters;
    rep
}
