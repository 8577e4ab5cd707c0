//! Reference model of the N-host switch, and the switched-fabric
//! differential harness.
//!
//! [`ModelSwitch`] is the naive executable answer to "what should a
//! switch do": one global FIFO per output port, infinite credit, and
//! replicate-at-ingress fan-out. No busy-until serialization, no
//! credit ledgers, no events — a few lines of obviously-checkable
//! code. The real switch adds per-`(port, VC)` credit flow control
//! and head-of-line stalls, but none of that may change what the
//! model predicts observably: which payloads reach which hosts, and
//! in what per-VC order.
//!
//! [`run_switch_scenario`] drives a seeded op interleaving through
//! both the model and a real switched [`genie::World`] on a random
//! topology (unicast and multicast routes), comparing at every
//! barrier:
//!
//! - byte-equal payloads per `(destination, VC)`, in model order
//!   (per-VC FIFO across hops);
//! - delivery counts (conservation: every injected PDU arrives at
//!   exactly its fan-out's worth of destinations);
//! - at the end, the real switch's ingress/replica/dispatch counters
//!   against the model's.
//!
//! On divergence [`shrink_switch`] deletes ops to a minimal scenario
//! and [`emit_switch_counterexample`] writes a replayable `.ops` file,
//! exactly like the two-host harness.

use std::collections::{BTreeMap, VecDeque};

use genie::{Allocation, HostId, InputRequest, OutputRequest, Semantics, World, WorldConfig};
use genie_fault::XorShift64;
use genie_machine::MachineSpec;
use genie_net::{SwitchConfig, Vc};

use crate::harness::shrink_ops;
use crate::ops::payload;

/// One route of a switched scenario: `(source host, VC, destinations)`.
pub type SwitchRoute = (u16, u32, Vec<u16>);

/// One step of a switched-fabric differential scenario.
///
/// Like [`crate::ModelOp`], targets are raw indices resolved modulo
/// the scenario's tables at interpretation time, so shrinking never
/// produces an uninterpretable op list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchOp {
    /// Output `len` bytes on route `route % routes.len()`.
    Send { route: usize, len: usize },
    /// Post the receives for everything in flight, run to quiescence,
    /// and compare the two worlds' deliveries.
    Barrier,
}

/// A complete switched-fabric scenario: topology plus op list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchScenario {
    /// Number of hosts (= switch ports).
    pub hosts: u16,
    /// Seed (decides semantics, topology, op list, payload bytes).
    pub seed: u64,
    /// Data-passing semantics every transfer uses.
    pub semantics: Semantics,
    /// Egress credit per `(port, VC)` in the real switch.
    pub port_credit: u32,
    /// Largest send the generator may emit.
    pub max_len: usize,
    /// The route table. Every route owns a unique VC (the fabric's
    /// one-sender-per-VC convention).
    pub routes: Vec<SwitchRoute>,
    /// The op list.
    pub ops: Vec<SwitchOp>,
}

/// Deliberate model bugs, used to prove the harness catches
/// divergences (and that shrinking works) — mirror of
/// [`crate::ModelBug`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchBug {
    /// The faithful model.
    None,
    /// Fan-out routes deliver only to their first destination.
    ForgetReplicas,
    /// Port FIFOs pop newest-first.
    LifoPorts,
}

/// The reference switch: global FIFO per output port, infinite
/// credit.
#[derive(Clone, Debug, Default)]
pub struct ModelSwitch {
    ports: Vec<VecDeque<(u32, Vec<u8>)>>,
    /// PDUs injected at ingress.
    pub injected: u64,
    /// Port-FIFO entries created (fan-out counts once per copy).
    pub enqueued: u64,
}

impl ModelSwitch {
    /// A switch with `hosts` empty output ports.
    pub fn new(hosts: u16) -> Self {
        ModelSwitch {
            ports: vec![VecDeque::new(); usize::from(hosts)],
            injected: 0,
            enqueued: 0,
        }
    }

    /// Ingress: replicate `data` into every destination port's FIFO.
    pub fn inject(&mut self, vc: u32, dsts: &[u16], data: Vec<u8>, bug: SwitchBug) {
        self.injected += 1;
        let take = match bug {
            SwitchBug::ForgetReplicas => 1,
            _ => dsts.len(),
        };
        for &dst in &dsts[..take] {
            self.ports[usize::from(dst)].push_back((vc, data.clone()));
            self.enqueued += 1;
        }
    }

    /// Drains one port's FIFO in delivery order.
    pub fn drain(&mut self, port: u16, bug: SwitchBug) -> Vec<(u32, Vec<u8>)> {
        let q = &mut self.ports[usize::from(port)];
        let mut out: Vec<(u32, Vec<u8>)> = q.drain(..).collect();
        if bug == SwitchBug::LifoPorts {
            out.reverse();
        }
        out
    }
}

/// Where and how a switched differential run diverged.
#[derive(Clone, Debug)]
pub struct SwitchDivergence {
    /// Index of the op at which the divergence was detected.
    pub step: usize,
    /// Human-readable op description.
    pub op: String,
    /// What differed.
    pub detail: String,
}

impl std::fmt::Display for SwitchDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {} ({}): {}", self.step, self.op, self.detail)
    }
}

/// Aggregate statistics of a passing switched differential run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchRunStats {
    /// Sends issued.
    pub sends: usize,
    /// Deliveries observed (and byte-compared) at the destinations.
    pub deliveries: usize,
    /// Multicast fan-out copies beyond the first destination.
    pub replicas: u64,
}

impl SwitchScenario {
    /// Generates the scenario for one `(hosts, seed)` grid point —
    /// a pure function of its arguments.
    ///
    /// Structural constraints keep every scenario in-contract: at
    /// most 3 undelivered PDUs per destination host between barriers
    /// (bounds unsolicited backlog below the adapter's overlay pool),
    /// and a trailing barrier so the run ends fully drained.
    pub fn generate(hosts: u16, seed: u64) -> SwitchScenario {
        assert!(hosts >= 2, "a switch needs at least two hosts");
        let mut rng = XorShift64::new(seed.wrapping_mul(0xa076_1d64_78bd_642f) ^ u64::from(hosts));
        let semantics = Semantics::ALL[rng.below(Semantics::ALL.len() as u64) as usize];
        let port_credit = 128 + 128 * rng.below(4) as u32;
        let max_len = 1 + rng.below(3000) as usize;

        // Random topology: ~2 routes per host; one in four routes
        // multicasts to several destinations.
        let n_routes = usize::from(hosts) * 2;
        let mut routes = Vec::with_capacity(n_routes);
        for r in 0..n_routes {
            let src = rng.below(u64::from(hosts)) as u16;
            let mut dsts: Vec<u16> = Vec::new();
            let fan = if rng.below(4) == 0 {
                (2 + rng.below(u64::from(hosts) - 1).min(2)).min(u64::from(hosts) - 1)
            } else {
                1
            };
            let mut cand = rng.below(u64::from(hosts)) as u16;
            while dsts.len() < fan as usize {
                if cand != src && !dsts.contains(&cand) {
                    dsts.push(cand);
                }
                cand = (cand + 1) % hosts;
            }
            routes.push((src, 500 + r as u32, dsts));
        }

        let n = 8 + rng.below(16) as usize;
        let mut ops = Vec::new();
        let mut unposted = vec![0usize; usize::from(hosts)];
        for _ in 0..n {
            let r = rng.below(routes.len() as u64) as usize;
            let fits = routes[r].2.iter().all(|&d| unposted[usize::from(d)] < 3);
            if rng.below(100) < 70 && fits {
                let len = 1 + rng.below(max_len as u64) as usize;
                ops.push(SwitchOp::Send { route: r, len });
                for &d in &routes[r].2 {
                    unposted[usize::from(d)] += 1;
                }
            } else {
                ops.push(SwitchOp::Barrier);
                unposted.iter_mut().for_each(|u| *u = 0);
            }
        }
        ops.push(SwitchOp::Barrier);
        SwitchScenario {
            hosts,
            seed,
            semantics,
            port_credit,
            max_len,
            routes,
            ops,
        }
    }

    /// Serializes to the `.ops` text format.
    pub fn to_ops_string(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("hosts={}\n", self.hosts));
        s.push_str(&format!("seed={}\n", self.seed));
        s.push_str(&format!("semantics={:?}\n", self.semantics));
        s.push_str(&format!("port_credit={}\n", self.port_credit));
        s.push_str(&format!("max_len={}\n", self.max_len));
        for (src, vc, dsts) in &self.routes {
            let d: Vec<String> = dsts.iter().map(u16::to_string).collect();
            s.push_str(&format!("route src={src} vc={vc} dsts={}\n", d.join(",")));
        }
        for op in &self.ops {
            match *op {
                SwitchOp::Send { route, len } => {
                    s.push_str(&format!("send route={route} len={len}\n"))
                }
                SwitchOp::Barrier => s.push_str("barrier\n"),
            }
        }
        s
    }

    /// Parses the `.ops` text format. Errors carry the offending line.
    pub fn parse(text: &str) -> Result<SwitchScenario, String> {
        let (mut hosts, mut seed, mut semantics) = (None, None, None);
        let (mut port_credit, mut max_len) = (None, None);
        let mut routes = Vec::new();
        let mut ops = Vec::new();
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(v) = line.strip_prefix("hosts=") {
                hosts = Some(v.parse().map_err(|_| format!("bad line: {raw}"))?);
            } else if let Some(v) = line.strip_prefix("seed=") {
                seed = Some(v.parse().map_err(|_| format!("bad line: {raw}"))?);
            } else if let Some(v) = line.strip_prefix("semantics=") {
                semantics = Some(
                    Semantics::ALL
                        .iter()
                        .copied()
                        .find(|x| format!("{x:?}") == v)
                        .ok_or_else(|| format!("bad line: {raw}"))?,
                );
            } else if let Some(v) = line.strip_prefix("port_credit=") {
                port_credit = Some(v.parse().map_err(|_| format!("bad line: {raw}"))?);
            } else if let Some(v) = line.strip_prefix("max_len=") {
                max_len = Some(v.parse().map_err(|_| format!("bad line: {raw}"))?);
            } else if let Some(rest) = line.strip_prefix("route ") {
                let mut words = rest.split_whitespace();
                let src = kv(words.next(), "src").ok_or_else(|| format!("bad line: {raw}"))?;
                let vc = kv(words.next(), "vc").ok_or_else(|| format!("bad line: {raw}"))?;
                let dsts_s: String =
                    kv(words.next(), "dsts").ok_or_else(|| format!("bad line: {raw}"))?;
                let dsts = dsts_s
                    .split(',')
                    .map(|d| d.parse::<u16>().map_err(|_| format!("bad line: {raw}")))
                    .collect::<Result<Vec<_>, _>>()?;
                routes.push((src, vc, dsts));
            } else if let Some(rest) = line.strip_prefix("send ") {
                let mut words = rest.split_whitespace();
                let route = kv(words.next(), "route").ok_or_else(|| format!("bad line: {raw}"))?;
                let len = kv(words.next(), "len").ok_or_else(|| format!("bad line: {raw}"))?;
                ops.push(SwitchOp::Send { route, len });
            } else if line == "barrier" {
                ops.push(SwitchOp::Barrier);
            } else {
                return Err(format!("bad line: {raw}"));
            }
        }
        Ok(SwitchScenario {
            hosts: hosts.ok_or("missing hosts= header")?,
            seed: seed.ok_or("missing seed= header")?,
            semantics: semantics.ok_or("missing semantics= header")?,
            port_credit: port_credit.ok_or("missing port_credit= header")?,
            max_len: max_len.ok_or("missing max_len= header")?,
            routes,
            ops,
        })
    }
}

fn kv<T: std::str::FromStr>(word: Option<&str>, key: &str) -> Option<T> {
    word?.strip_prefix(key)?.strip_prefix('=')?.parse().ok()
}

/// Runs one scenario through the real switched world and the
/// reference [`ModelSwitch`], comparing deliveries at every barrier.
pub fn run_switch_scenario(
    sc: &SwitchScenario,
    bug: SwitchBug,
) -> Result<SwitchRunStats, SwitchDivergence> {
    let mut cfg = SwitchConfig::new(sc.hosts, sc.port_credit);
    for (src, vc, dsts) in &sc.routes {
        cfg = cfg.route(*src, *vc, dsts);
    }
    let mut w = World::new(WorldConfig::switched(
        MachineSpec::micron_p166(),
        usize::from(sc.hosts),
        cfg,
    ));
    let spaces: Vec<_> = (0..sc.hosts).map(|h| w.create_process(HostId(h))).collect();
    let mut model = ModelSwitch::new(sc.hosts);

    let mut stats = SwitchRunStats::default();
    let mut pdu_idx = 0u64;
    // Sends in flight since the last barrier, per destination host.
    let mut inflight: BTreeMap<u16, usize> = BTreeMap::new();

    for (step, op) in sc.ops.iter().enumerate() {
        match *op {
            SwitchOp::Send { route, len } => {
                let (src, vc, dsts) = &sc.routes[route % sc.routes.len()];
                let len = len.clamp(1, sc.max_len);
                let data = payload(sc.seed ^ 0x5117c4, pdu_idx, len);
                pdu_idx += 1;
                let space = spaces[usize::from(*src)];
                let vaddr = match sc.semantics.allocation() {
                    Allocation::Application => w
                        .alloc_buffer(HostId(*src), space, len, 0)
                        .expect("src buffer"),
                    Allocation::System => {
                        w.host_mut(HostId(*src))
                            .alloc_io_buffer(space, len)
                            .expect("src io buffer")
                            .1
                    }
                };
                w.app_write(HostId(*src), space, vaddr, &data)
                    .expect("fill");
                w.output(
                    HostId(*src),
                    OutputRequest::new(sc.semantics, Vc(*vc), space, vaddr, len),
                )
                .expect("output");
                model.inject(*vc, dsts, data, bug);
                for &d in dsts {
                    *inflight.entry(d).or_default() += 1;
                }
                stats.sends += 1;
            }
            SwitchOp::Barrier => {
                barrier_check(sc, &mut w, &spaces, &mut model, bug, step, &mut stats)?;
                inflight.clear();
            }
        }
    }
    // Scenario end is an implicit barrier: drain whatever a shrunk op
    // list left in flight before judging conservation.
    barrier_check(
        sc,
        &mut w,
        &spaces,
        &mut model,
        bug,
        sc.ops.len(),
        &mut stats,
    )?;
    drop(inflight);

    // Conservation, cross-checked against the real switch's counters.
    let real = w.switch_stats().expect("switched world");
    stats.replicas = real.pdus_replicated;
    if real.pdus_ingress != model.injected || real.pdus_dispatched != model.enqueued {
        return Err(SwitchDivergence {
            step: sc.ops.len().saturating_sub(1),
            op: "end".into(),
            detail: format!(
                "conservation: real ingress/dispatched = {}/{}, model = {}/{}",
                real.pdus_ingress, real.pdus_dispatched, model.injected, model.enqueued
            ),
        });
    }
    Ok(stats)
}

/// One barrier: post the receives the model predicts, run the real
/// world to quiescence, and compare every delivery per `(host, VC)`.
fn barrier_check(
    sc: &SwitchScenario,
    w: &mut World,
    spaces: &[genie_vm::SpaceId],
    model: &mut ModelSwitch,
    bug: SwitchBug,
    step: usize,
    stats: &mut SwitchRunStats,
) -> Result<(), SwitchDivergence> {
    // The model's prediction: per (destination, VC) payload queues,
    // in port-FIFO order.
    let mut want: BTreeMap<(u16, u32), VecDeque<Vec<u8>>> = BTreeMap::new();
    let mut total = 0usize;
    for h in 0..sc.hosts {
        for (vc, data) in model.drain(h, bug) {
            want.entry((h, vc)).or_default().push_back(data);
            total += 1;
        }
    }
    // Post exactly the predicted receives, then drain the
    // real fabric.
    let mut tokens: BTreeMap<u64, (u16, u32)> = BTreeMap::new();
    for (&(host, vc), q) in &want {
        let space = spaces[usize::from(host)];
        for data in q {
            let req = match sc.semantics.allocation() {
                Allocation::Application => {
                    let dst = w
                        .alloc_buffer(HostId(host), space, data.len(), 0)
                        .expect("dst buffer");
                    InputRequest::app(sc.semantics, Vc(vc), space, dst, data.len())
                }
                Allocation::System => InputRequest::system(sc.semantics, Vc(vc), space, data.len()),
            };
            let tok = w.input(HostId(host), req).expect("input");
            tokens.insert(tok, (host, vc));
        }
    }
    w.run();
    let done = w.take_completed_inputs();
    if done.len() != total {
        return Err(SwitchDivergence {
            step,
            op: "barrier".into(),
            detail: format!(
                "model predicts {total} deliveries, real world completed {}",
                done.len()
            ),
        });
    }
    for c in &done {
        let &(host, vc) = tokens.get(&c.token).expect("known token");
        let expect = match want.get_mut(&(host, vc)).and_then(VecDeque::pop_front) {
            Some(e) => e,
            None => {
                return Err(SwitchDivergence {
                    step,
                    op: "barrier".into(),
                    detail: format!(
                        "host {host} vc {vc}: more deliveries than the model predicted"
                    ),
                })
            }
        };
        if c.len != expect.len()
            || !w
                .app_matches(HostId(host), spaces[usize::from(host)], c.vaddr, &expect)
                .expect("readable delivery")
        {
            return Err(SwitchDivergence {
                step,
                op: "barrier".into(),
                detail: format!(
                    "host {host} vc {vc}: delivery #{} differs from the model \
                                 (per-VC FIFO or payload bytes)",
                    stats.deliveries
                ),
            });
        }
        stats.deliveries += 1;
    }
    Ok(())
}

/// Shrinks a diverging scenario by deleting ops while the divergence
/// persists. Same fixpoint loop as [`crate::shrink`].
pub fn shrink_switch(sc: &SwitchScenario, bug: SwitchBug) -> (SwitchScenario, SwitchDivergence) {
    shrink_ops(
        sc,
        |s| &mut s.ops,
        |d| d.step,
        |s| run_switch_scenario(s, bug),
    )
}

/// Writes a minimal counterexample under `GENIE_MODEL_CE_DIR` (default
/// `target/model-counterexamples`). Returns the path on success.
pub fn emit_switch_counterexample(
    minimal: &SwitchScenario,
    div: &SwitchDivergence,
) -> Option<std::path::PathBuf> {
    let dir = std::env::var("GENIE_MODEL_CE_DIR")
        .unwrap_or_else(|_| "target/model-counterexamples".into());
    std::fs::create_dir_all(&dir).ok()?;
    let path = std::path::PathBuf::from(&dir)
        .join(format!("switch_ce_h{}_{}.ops", minimal.hosts, minimal.seed));
    let body = format!(
        "# switch-differential counterexample\n# {div}\n{}",
        minimal.to_ops_string()
    );
    std::fs::write(&path, body).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_round_trips() {
        for seed in 0..20 {
            let a = SwitchScenario::generate(4, seed);
            assert_eq!(a, SwitchScenario::generate(4, seed));
            let parsed = SwitchScenario::parse(&a.to_ops_string()).expect("parse");
            assert_eq!(a, parsed);
        }
    }

    #[test]
    fn every_route_owns_a_unique_vc() {
        for seed in 0..30 {
            let sc = SwitchScenario::generate(5, seed);
            let mut vcs: Vec<u32> = sc.routes.iter().map(|r| r.1).collect();
            vcs.sort_unstable();
            vcs.dedup();
            assert_eq!(vcs.len(), sc.routes.len(), "seed {seed}");
        }
    }

    #[test]
    fn faithful_model_agrees_on_a_seed_spread() {
        for seed in 0..10 {
            let sc = SwitchScenario::generate(4, seed);
            let stats = run_switch_scenario(&sc, SwitchBug::None)
                .unwrap_or_else(|d| panic!("seed {seed} diverged: {d}"));
            assert_eq!(stats.sends > 0, stats.deliveries > 0, "seed {seed}");
        }
    }

    #[test]
    fn parse_rejects_garbage_with_the_offending_line() {
        let e = SwitchScenario::parse("hosts=2\nfly away\n").unwrap_err();
        assert!(e.contains("fly away"), "{e}");
    }
}
