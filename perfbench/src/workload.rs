//! What one repetition of a workload produces, and the workload list.
//!
//! A repetition builds fresh worlds from the seed (set-up, ending with
//! one warm-up op per world), runs a fixed number of timed ops on them,
//! then reads the simulated digest and program counters. Fresh worlds
//! make every repetition of a run do identical simulated work, which
//! the same-work guard checks.

use std::time::Duration;

use crate::check::{Counters, Failure};
use crate::{cq_rpc, fanin, two_host};

/// Outcome of one repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host time spent building worlds, processes, routes and payloads
    /// plus one warm-up op per world.
    pub setup: Duration,
    /// Host time of the timed ops, as wall clock.
    pub timed: Duration,
    /// Host time of each timed op, ns.
    pub op_ns: Vec<u64>,
    /// Datagrams delivered and checked in timed ops.
    pub dgrams: u64,
    /// Datagrams delivered in every op, warm-up ops included, per
    /// semantics (index into `Semantics::ALL`): the base of per-datagram
    /// layer costs, whose spans cover the warm-up ops too.
    pub dgrams_by_sem: [u64; 8],
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Raw program counters (simulated).
    pub counters: Counters,
    /// Ops attempted, warm-up ops included.
    pub attempted: u64,
    /// Failed ops.
    pub failures: Vec<Failure>,
    /// Runner accounting, for workloads dispatched through
    /// `genie_runner`: summed per-cell busy time and the dispatch wall
    /// clock of the timed phase.
    pub runner: Option<RunnerBusy>,
}

/// Busy time of the runner's worker threads over the timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunnerBusy {
    /// Sum over cells of the time each spent running its timed ops.
    pub cell_busy: Duration,
    /// Wall clock of the timed dispatch.
    pub wall: Duration,
    /// Worker threads.
    pub threads: usize,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop two-host exchanges across sizes and buffering setups.
    TwoHostSweep,
    /// A 64-host star fanning 2 KB datagrams into its hub in waves.
    FabricFanin,
    /// Request/response through queue pairs under masked faults.
    CqRpc,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TwoHostSweep,
        Workload::FabricFanin,
        Workload::CqRpc,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TwoHostSweep => "two_host_sweep",
            Workload::FabricFanin => "fabric_fanin",
            Workload::CqRpc => "cq_rpc",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one repetition. `threads` is the runner's worker count
    /// (only the sweep dispatches through the runner).
    pub fn rep(self, seed: u64, threads: usize) -> Rep {
        match self {
            Workload::TwoHostSweep => two_host::rep(seed, threads),
            Workload::FabricFanin => fanin::rep(seed),
            Workload::CqRpc => cq_rpc::rep(seed),
        }
    }
}

/// SplitMix64: the seeded generator behind every input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream id, so that separate
    /// input streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }

    /// `len` seeded bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}
