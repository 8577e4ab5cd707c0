//! `fabric_fanin`: per-datagram cost on a switched fabric.
//!
//! A 64-host star whose 63 spokes send 2 KB datagrams into the hub in
//! bounded waves, one world per semantics. An op is one wave: post the
//! hub's receives, write and send every datagram, run to quiescence,
//! collect and check the completions, free the buffers, and let every
//! host's clock catch up with the wave's end before the next wave is
//! issued. Payloads are verified on a seeded subsample. The event loop,
//! switch arbitration, credit and buffer alloc/free dominate here; VM
//! page work is negligible.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use genie::{Allocation, HostId, InputRequest, OutputRequest, Semantics, World, WorldConfig};
use genie_machine::MachineSpec;
use genie_net::{SwitchConfig, Vc};
use genie_vm::SpaceId;

use crate::check::{add_world_counters, bytes_match, digest_world, Counters, Digest, Failure};
use crate::layer::{self, tag};
use crate::span;
use crate::workload::{Rep, Rng};

/// Hosts in the star (hub 0 plus 63 spokes).
pub const HOSTS: u16 = 64;
/// Datagram size.
pub const BYTES: usize = 2048;
/// Datagrams per spoke per wave.
pub const PER_WAVE: usize = 2;
/// Timed waves per world per repetition.
pub const WAVES: usize = 6;
/// One datagram in this many is byte-checked.
pub const VERIFY_ONE_IN: u64 = 8;
/// Distinct payloads the datagrams draw from.
const PAYLOADS: usize = 64;
const VC_BASE: u32 = 500;

struct Fan {
    sem: Semantics,
    w: World,
    procs: Vec<SpaceId>,
    seed: u64,
    payloads: Vec<Vec<u8>>,
    latency_sum: u64,
    sends: u64,
}

fn vc(spoke: u16) -> Vc {
    Vc(VC_BASE + u32::from(spoke))
}

impl Fan {
    fn build(sem: Semantics, seed: u64) -> Fan {
        let sw = SwitchConfig::star(HOSTS, 0, VC_BASE, 256);
        let cfg = WorldConfig::switched(MachineSpec::micron_p166(), usize::from(HOSTS), sw);
        let (w, procs) = layer::world_new(cfg);
        let payloads = {
            let _g = span::enter("bench.payloads", span::NO_TAG);
            let mut rng = Rng::new(seed, 3);
            (0..PAYLOADS).map(|_| rng.bytes(BYTES)).collect()
        };
        Fan {
            sem,
            w,
            procs,
            seed,
            payloads,
            latency_sum: 0,
            sends: 0,
        }
    }

    /// Payload index and whether datagram `k` of `spoke` is verified.
    fn pick(&self, spoke: u16, k: usize) -> (usize, bool) {
        let mut r = Rng::new(self.seed, (u64::from(spoke) << 32) | k as u64);
        let p = r.below(PAYLOADS as u64) as usize;
        (p, r.below(VERIFY_ONE_IN) == 0)
    }

    /// One wave; returns the datagrams delivered.
    fn wave(&mut self, n: usize) -> Result<u64, Failure> {
        let _op = span::op(tag(self.sem));
        let (sem, hub) = (self.sem, HostId(0));
        let hub_space = self.procs[0];
        // Send order: for each slot, the spokes in a seeded order.
        let mut order: Vec<(u16, usize)> = Vec::with_capacity(PER_WAVE * usize::from(HOSTS - 1));
        for slot in 0..PER_WAVE {
            let k = n * PER_WAVE + slot;
            let mut rng = Rng::new(self.seed, 0x5000_0000 + k as u64);
            for i in rng.permutation(usize::from(HOSTS - 1)) {
                order.push((i as u16 + 1, k));
            }
        }
        let mut tokens: HashMap<u64, (u16, usize)> = HashMap::with_capacity(order.len());
        for &(i, k) in &order {
            let req = match layer::recv_buffer(&mut self.w, hub, hub_space, sem, vc(i), BYTES)? {
                Some(dst) => InputRequest::app(sem, vc(i), hub_space, dst, BYTES),
                None => InputRequest::system(sem, vc(i), hub_space, BYTES),
            };
            tokens.insert(layer::input(&mut self.w, hub, req)?, (i, k));
        }
        let mut app_srcs: Vec<(u16, u64)> = Vec::new();
        for &(i, k) in &order {
            let (host, space) = (HostId(i), self.procs[usize::from(i)]);
            let src = layer::send_buffer(&mut self.w, host, space, sem, BYTES)?;
            if sem.allocation() == Allocation::Application {
                app_srcs.push((i, src));
            }
            let (p, _) = self.pick(i, k);
            layer::app_write(&mut self.w, host, space, src, &self.payloads[p])?;
            let req = OutputRequest::new(sem, vc(i), space, src, BYTES);
            layer::output(&mut self.w, host, req)?;
            self.sends += 1;
        }
        layer::run(&mut self.w, sem);
        let done = layer::take_inputs(&mut self.w);
        let sent = layer::take_outputs(&mut self.w);
        if done.len() != order.len() || sent.len() != order.len() {
            return Err(Failure::Delivery(format!(
                "{sem} wave {n}: {} delivered, {} sent, {} issued",
                done.len(),
                sent.len(),
                order.len()
            )));
        }
        for c in &done {
            let Some((i, k)) = tokens.remove(&c.token) else {
                return Err(Failure::Delivery(format!(
                    "{sem} wave {n}: completion for unknown token {}",
                    c.token
                )));
            };
            if c.len != BYTES {
                return Err(Failure::Delivery(format!(
                    "{sem} spoke {i} datagram {k}: {} B delivered",
                    c.len
                )));
            }
            let (p, verify) = self.pick(i, k);
            if verify {
                bytes_match(
                    layer::app_matches(&mut self.w, hub, hub_space, c.vaddr, &self.payloads[p]),
                    || format!("{sem} spoke {i} datagram {k} delivered other bytes"),
                )?;
            }
            match c.region {
                Some(r) => layer::release_region(&mut self.w, hub, r, sem)?,
                None => layer::free_buffer(&mut self.w, hub, hub_space, c.vaddr)?,
            }
            self.latency_sum += c.latency.0;
        }
        for (i, src) in app_srcs {
            layer::free_buffer(&mut self.w, HostId(i), self.procs[usize::from(i)], src)?;
        }
        // The next wave is issued only after this one completed.
        layer::quiesce(&mut self.w);
        Ok(done.len() as u64)
    }
}

/// One repetition: for each semantics, build the star and run one
/// warm-up wave (set-up), then `WAVES` timed waves.
pub fn rep(seed: u64) -> Rep {
    let mut rep = Rep::default();
    let mut digest = Digest::default();
    let mut counters = Counters::new();
    for sem in Semantics::ALL {
        let t0 = Instant::now();
        let mut fan = Fan::build(sem, seed);
        rep.attempted += 1;
        let warm = fan.wave(0);
        rep.setup += t0.elapsed();
        match warm {
            Ok(d) => rep.dgrams_by_sem[usize::from(tag(sem))] += d,
            Err(f) => {
                rep.failures.push(f);
                continue;
            }
        }
        let mut timed = Duration::ZERO;
        let mut failed = false;
        for n in 1..=WAVES {
            rep.attempted += 1;
            let t = Instant::now();
            let r = fan.wave(n);
            let dt = t.elapsed();
            timed += dt;
            match r {
                Ok(d) => {
                    rep.op_ns.push(dt.as_nanos() as u64);
                    rep.dgrams += d;
                    rep.dgrams_by_sem[usize::from(tag(sem))] += d;
                }
                Err(f) => {
                    rep.failures.push(f);
                    failed = true;
                    break;
                }
            }
        }
        rep.timed += timed;
        if failed {
            continue;
        }
        digest_world(&mut digest, &fan.w);
        digest.add(fan.latency_sum);
        add_world_counters(&mut counters, &fan.w);
        *counters.entry("bench.sends").or_default() += fan.sends;
        layer::world_drop(fan.w);
    }
    rep.digest = digest.value();
    rep.counters = counters;
    rep
}
