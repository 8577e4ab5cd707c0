//! Correctness side of the benchmark: failure accounting, simulated
//! digests, program counters and the same-work guard.
//!
//! Simulated numbers are not metrics here. They repeat exactly for a
//! given seed, so the benchmark uses them to prove that every timed
//! repetition did the same, correct work.

use std::collections::BTreeMap;
use std::fmt;

use genie::{GenieError, World};

use crate::span::{self, NO_TAG};

/// Why an op failed. A failure is counted, never a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum Failure {
    /// The library refused or failed a call.
    Genie(String),
    /// Delivered bytes differ from the bytes sent.
    Bytes(String),
    /// A completion was missing, extra, short or an error.
    Delivery(String),
    /// A repetition's simulated digest differs from the recorded one.
    Digest { got: u64, want: u64 },
    /// Consecutive repetitions did different simulated work.
    SameWork(String),
    /// The library panicked.
    Panic(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Genie(e) => write!(f, "GenieError: {e}"),
            Failure::Bytes(what) => write!(f, "byte mismatch: {what}"),
            Failure::Delivery(what) => write!(f, "delivery: {what}"),
            Failure::Digest { got, want } => {
                write!(f, "digest mismatch: got {got:016x}, recorded {want:016x}")
            }
            Failure::SameWork(what) => write!(f, "same-work guard: {what}"),
            Failure::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

impl From<GenieError> for Failure {
    fn from(e: GenieError) -> Self {
        Failure::Genie(e.to_string())
    }
}

/// Checks a verification result: `Ok(false)` is a byte mismatch,
/// described by `what` (formatted only on failure).
pub fn bytes_match(
    matched: Result<bool, GenieError>,
    what: impl FnOnce() -> String,
) -> Result<(), Failure> {
    match matched {
        Ok(true) => Ok(()),
        Ok(false) => Err(Failure::Bytes(what())),
        Err(e) => Err(e.into()),
    }
}

/// FNV-1a over 64-bit words: the digest of a repetition's simulated
/// outputs.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Folds a world's final simulated clock plus its switch and fault
/// counters into `d`.
pub fn digest_world(d: &mut Digest, w: &World) {
    let _g = span::enter("core.metrics", NO_TAG);
    d.add(w.now().0);
    if let Some(s) = w.switch_stats() {
        for v in [
            s.pdus_ingress,
            s.pdus_replicated,
            s.pdus_dispatched,
            s.credit_stalls,
            s.max_port_depth,
        ] {
            d.add(v);
        }
    }
    for (_, v) in w.fault_stats().fields() {
        d.add(v);
    }
}

/// Raw program counters of one repetition, summed over its worlds.
/// Every one is simulated, so equal inputs give equal counters.
pub type Counters = BTreeMap<&'static str, u64>;

/// Adds a world's counters (read from its metrics registry and rollups)
/// into `c`. Call only after the world's work is done.
pub fn add_world_counters(c: &mut Counters, w: &World) {
    let _g = span::enter("core.metrics", NO_TAG);
    let m = w.metrics();
    let host = |k: &str| m.counter(&format!("rollup.host.{k}"));
    let ledger_ops: u64 = m
        .iter()
        .filter(|(k, _)| k.starts_with("rollup.host.ops.") && k.ends_with(".count"))
        .map(|(k, _)| m.counter(k))
        .sum();
    let mut add = |k: &'static str, v: u64| *c.entry(k).or_default() += v;
    add(
        "net.switch.pdus_dispatched",
        m.counter("switch.pdus_dispatched"),
    );
    add(
        "net.switch.credit_stalls",
        m.counter("switch.credit_stalls"),
    );
    add("net.adapter.pdus_received", host("adapter.pdus_received"));
    add("net.adapter.posted_hits", host("adapter.posted_hits"));
    add("net.adapter.pool_takes", host("adapter.pool_takes"));
    add("vm.tcow_copies", host("vm.tcow_copies"));
    add("vm.cow_copies", host("vm.cow_copies"));
    add("vm.page_swaps", host("vm.page_swaps"));
    add("vm.faults_handled", host("vm.faults_handled"));
    add("mem.frame_allocs", host("mem.frame_allocs"));
    add("mem.deferred_frees", host("mem.deferred_frees"));
    add("fault.retransmits", m.counter("fault.retransmits"));
    add("fault.crc_drops", m.counter("fault.crc_drops"));
    add(
        "fault.held_for_reorder",
        m.counter("fault.held_for_reorder"),
    );
    add("machine.ledger.ops", ledger_ops);
    let depth = c.entry("net.switch.max_port_depth").or_default();
    *depth = (*depth).max(m.counter("switch.max_port_depth"));
    let peak = c.entry("mem.peak_frames_in_use").or_default();
    *peak = (*peak).max(host("mem.peak_frames_in_use"));
}

/// The published program counters, derived from the raw ones.
/// Ratios whose base is zero read 0.
pub fn program_counters(c: &Counters) -> Vec<(&'static str, f64, &'static str)> {
    let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let count = |k: &'static str| (k, get(k), "count");
    vec![
        count("net.switch.pdus_dispatched"),
        count("net.switch.credit_stalls"),
        count("net.switch.max_port_depth"),
        (
            "net.adapter.posted_hit_rate",
            ratio(
                get("net.adapter.posted_hits"),
                get("net.adapter.pdus_received"),
            ),
            "ratio",
        ),
        count("net.adapter.pool_takes"),
        count("vm.tcow_copies"),
        count("vm.cow_copies"),
        count("vm.page_swaps"),
        count("vm.faults_handled"),
        count("mem.frame_allocs"),
        count("mem.deferred_frees"),
        count("mem.peak_frames_in_use"),
        count("fault.retransmits"),
        count("fault.crc_drops"),
        count("fault.held_for_reorder"),
        (
            "fault.retry_ratio",
            ratio(
                get("fault.retransmits"),
                get("bench.sends") + get("fault.retransmits"),
            ),
            "ratio",
        ),
        count("cq.window_increases"),
        count("cq.window_decreases"),
        count("cq.ring_overflows"),
        count("cq.sq_rejects"),
        (
            "cq.completion_ratio",
            ratio(get("cq.completed"), get("cq.posted")),
            "ratio",
        ),
        count("machine.ledger.ops"),
    ]
}

/// The same-work guard: every repetition of a run must reproduce the
/// first one's digest and counters exactly. A memoized call or state
/// that drifts between repetitions would otherwise pose as a speed-up.
#[derive(Default)]
pub struct SameWork {
    first: Option<(u64, Counters)>,
}

impl SameWork {
    /// Checks repetition `rep` against the first repetition seen.
    pub fn check(&mut self, rep: usize, digest: u64, counters: &Counters) -> Result<(), Failure> {
        let Some((d0, c0)) = &self.first else {
            self.first = Some((digest, counters.clone()));
            return Ok(());
        };
        let keys = c0.keys().chain(counters.keys());
        for k in keys {
            let (a, b) = (c0.get(k), counters.get(k));
            if a != b {
                return Err(Failure::SameWork(format!(
                    "repetition {rep} has {k} = {}, repetition 0 had {}",
                    b.copied().unwrap_or(0),
                    a.copied().unwrap_or(0)
                )));
            }
        }
        if *d0 != digest {
            return Err(Failure::SameWork(format!(
                "repetition {rep} digest {digest:016x} differs from repetition 0's {d0:016x}"
            )));
        }
        Ok(())
    }
}

/// Digests recorded per (workload, seed), embedded at build time.
/// Regenerate with `--record-digests N` after an intended change to
/// simulated behaviour.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest for `workload` at `seed`, if that seed was
/// recorded.
pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Checks a repetition's digest against the recorded one.
pub fn check_digest(got: u64, recorded: Option<u64>) -> Result<(), Failure> {
    match recorded {
        Some(want) if want != got => Err(Failure::Digest { got, want }),
        _ => Ok(()),
    }
}

/// Attempted and failed ops of a run, with the first few reasons.
#[derive(Default, Debug)]
pub struct Tally {
    /// Ops attempted (warm-up ops included).
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The first failures, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Most failure reasons kept for the report.
    const KEEP: usize = 8;

    /// Counts one failed op.
    pub fn fail(&mut self, f: &Failure) {
        self.failed += 1;
        if self.reasons.len() < Self::KEEP {
            self.reasons.push(f.to_string());
        }
    }

    /// Failed ops over attempted ops.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Report lines: the ratio, then each kept reason.
    pub fn report(&self) -> Vec<String> {
        let mut out = vec![format!(
            "{:<44} {:>16.6} ratio ({} of {} ops failed)",
            "failed_ratio",
            self.failed_ratio(),
            self.failed,
            self.attempted
        )];
        out.extend(self.reasons.iter().map(|r| format!("  failure: {r}")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer;
    use crate::workload::Workload;
    use genie::{HostId, InputRequest, OutputRequest, Semantics, WorldConfig};
    use genie_net::Vc;

    #[test]
    fn wrong_payload_and_wrong_digest_are_counted_and_reported() {
        // One real exchange, then checked against bytes it did not carry.
        let mut w = World::new(WorldConfig::default());
        let (tx, rx) = (w.create_process(HostId::A), w.create_process(HostId::B));
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
        let src = w.alloc_buffer(HostId::A, tx, data.len(), 0).unwrap();
        let dst = w.alloc_buffer(HostId::B, rx, data.len(), 0).unwrap();
        let s = Semantics::EmulatedCopy;
        w.input(HostId::B, InputRequest::app(s, Vc(1), rx, dst, data.len()))
            .unwrap();
        w.app_write(HostId::A, tx, src, &data).unwrap();
        w.output(HostId::A, OutputRequest::new(s, Vc(1), tx, src, data.len()))
            .unwrap();
        w.run();
        let got = w.take_completed_inputs()[0];

        let mut tally = Tally {
            attempted: 3,
            ..Tally::default()
        };
        let right = layer::app_matches(&mut w, HostId::B, rx, got.vaddr, &data);
        assert_eq!(bytes_match(right, || "exchange".into()), Ok(()));
        let mut wrong = data.clone();
        wrong[1234] ^= 0x40;
        let bad = layer::app_matches(&mut w, HostId::B, rx, got.vaddr, &wrong);
        let f = bytes_match(bad, || "exchange".into()).unwrap_err();
        assert!(matches!(f, Failure::Bytes(_)));
        tally.fail(&f);

        let f = check_digest(0x1234, Some(0x1235)).unwrap_err();
        assert_eq!(
            f,
            Failure::Digest {
                got: 0x1234,
                want: 0x1235
            }
        );
        tally.fail(&f);
        assert_eq!(check_digest(0x1234, Some(0x1234)), Ok(()));
        assert_eq!(check_digest(0x1234, None), Ok(()));

        // A library error is a failure too, never a panic.
        let unmapped = layer::app_matches(&mut w, HostId::B, rx, 1 << 40, &data);
        let f = bytes_match(unmapped, || "unmapped".into()).unwrap_err();
        assert!(matches!(f, Failure::Genie(_)));
        tally.fail(&f);

        assert_eq!(tally.failed, 3);
        let report = tally.report().join("\n");
        assert!(report.starts_with("failed_ratio"));
        assert!(report.contains("1.000000 ratio (3 of 3 ops failed)"));
        assert!(report.contains("byte mismatch: exchange"));
        assert!(report.contains("digest mismatch: got 0000000000001234"));
        assert!(report.contains("GenieError"));
        let json = crate::json(tally.failed == 0, &tally, &[]);
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 3"));
    }

    #[test]
    fn same_work_guard_flags_drifting_counters_and_digests() {
        let mut c = Counters::new();
        c.insert("machine.ledger.ops", 100);
        c.insert("vm.tcow_copies", 4);
        let mut g = SameWork::default();
        assert_eq!(g.check(0, 7, &c), Ok(()));
        assert_eq!(g.check(1, 7, &c), Ok(()));
        // A memoized call: the repetition did less simulated work.
        let mut memo = c.clone();
        memo.insert("machine.ledger.ops", 60);
        let f = g.check(2, 7, &memo).unwrap_err();
        assert!(f.to_string().contains("machine.ledger.ops = 60"), "{f}");
        // Drifting warm state: same work count, other results.
        let mut extra = c.clone();
        extra.insert("vm.page_swaps", 1);
        assert!(g.check(3, 7, &extra).is_err());
        assert!(g.check(4, 8, &c).is_err());
    }

    #[test]
    fn consecutive_repetitions_do_identical_work() {
        for w in Workload::ALL {
            let seed = 0;
            let (a, b) = (w.rep(seed, 2), w.rep(seed, 1));
            assert!(a.failures.is_empty(), "{}: {:?}", w.name(), a.failures);
            assert!(b.failures.is_empty(), "{}: {:?}", w.name(), b.failures);
            assert!(a.counters["machine.ledger.ops"] > 0, "{}", w.name());
            let mut g = SameWork::default();
            assert_eq!(g.check(0, a.digest, &a.counters), Ok(()));
            assert_eq!(g.check(1, b.digest, &b.counters), Ok(()), "{}", w.name());
            assert_eq!(
                check_digest(a.digest, recorded_digest(w.name(), seed)),
                Ok(()),
                "{}: digest moved; re-record with --record-digests",
                w.name()
            );
            assert!(recorded_digest(w.name(), seed).is_some());
        }
    }
}
