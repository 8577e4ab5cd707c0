//! `two_host_sweep`: the paper's own regime.
//!
//! Closed-loop two-host exchanges at 1,500 B, 16 KB and 60 KB for every
//! semantics under each of the four input-buffering setups: 32 cells,
//! dispatched through `genie_runner::map`. An op is one round of one
//! cell (one exchange at each size), and every delivered byte is
//! checked. Per-byte VM and memory work dominates here; the switch and
//! the event queue barely matter.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use genie::{Allocation, ExperimentSetup, HostId, InputRequest, OutputRequest, Semantics, World};
use genie_machine::{MachineSpec, SimTime};
use genie_net::Vc;
use genie_vm::SpaceId;

use crate::check::{add_world_counters, bytes_match, Counters, Digest, Failure};
use crate::layer::{self, tag};
use crate::span;
use crate::workload::{Rep, Rng, RunnerBusy};

/// Datagram sizes of every round.
pub const SIZES: [usize; 3] = [1500, 16 * 1024, 60 * 1024];
/// Timed rounds per cell per repetition.
pub const ROUNDS: usize = 24;

fn setups() -> [ExperimentSetup; 4] {
    let m = MachineSpec::micron_p166();
    [
        ExperimentSetup::early_demux(m.clone()),
        ExperimentSetup::pooled_aligned(m.clone()),
        ExperimentSetup::pooled_unaligned(m.clone()),
        ExperimentSetup::outboard(m),
    ]
}

/// One (setup, semantics) cell with its two-host world.
struct Cell {
    sem: Semantics,
    recv_page_off: usize,
    w: World,
    tx: SpaceId,
    rx: SpaceId,
    /// Application buffers per size, allocated on first use and
    /// reused by every later round, as the paper's runs do.
    app_bufs: [Option<(u64, u64)>; 3],
    /// Simulated latency of every exchange, in order.
    latencies: Vec<u64>,
    op_ns: Vec<u64>,
    busy: Duration,
    attempted: u64,
    sends: u64,
    failure: Option<Failure>,
}

/// Two payload variants per size; rounds alternate between them, so a
/// stale buffer cannot pass the byte check.
type Payloads = [[Vec<u8>; 2]; 3];

fn payloads(seed: u64) -> Payloads {
    let _g = span::enter("bench.payloads", span::NO_TAG);
    let mut rng = Rng::new(seed, 1);
    SIZES.map(|n| [rng.bytes(n), rng.bytes(n)])
}

fn build_cell(index: usize) -> Cell {
    let setups = setups();
    let setup = &setups[index / 8];
    let sem = Semantics::ALL[index % 8];
    let mut cfg = setup.world_config();
    // Room for the largest datagram's buffers with generous headroom,
    // sized the way the library's own series contexts size it.
    cfg.frames_per_host += 8 * (SIZES[2] / cfg.machine_a.page_size + 2);
    let (w, procs) = layer::world_new(cfg);
    Cell {
        sem,
        recv_page_off: setup.recv_page_off,
        w,
        tx: procs[0],
        rx: procs[1],
        app_bufs: [None; 3],
        latencies: Vec::with_capacity(3 * (ROUNDS + 1)),
        op_ns: Vec::with_capacity(ROUNDS),
        busy: Duration::ZERO,
        attempted: 0,
        sends: 0,
        failure: None,
    }
}

/// One exchange A → B at size index `i`, mirroring the library's
/// measured exchange: quiesce, post, write, send, run, check, release.
fn exchange(c: &mut Cell, i: usize, data: &[u8]) -> Result<SimTime, Failure> {
    let (sem, bytes, vc) = (c.sem, data.len(), Vc(1));
    let (a, b) = (HostId::A, HostId::B);
    layer::quiesce(&mut c.w);
    let src = match sem.allocation() {
        Allocation::Application => {
            let (src, dst) = match c.app_bufs[i] {
                Some(bufs) => bufs,
                None => {
                    let src = layer::alloc_buffer(&mut c.w, a, c.tx, bytes, 0)?;
                    let dst = layer::alloc_buffer(&mut c.w, b, c.rx, bytes, c.recv_page_off)?;
                    c.app_bufs[i] = Some((src, dst));
                    (src, dst)
                }
            };
            layer::input(&mut c.w, b, InputRequest::app(sem, vc, c.rx, dst, bytes))?;
            src
        }
        Allocation::System => {
            layer::input(&mut c.w, b, InputRequest::system(sem, vc, c.rx, bytes))?;
            layer::send_buffer(&mut c.w, a, c.tx, sem, bytes)?
        }
    };
    layer::app_write(&mut c.w, a, c.tx, src, data)?;
    layer::output(&mut c.w, a, OutputRequest::new(sem, vc, c.tx, src, bytes))?;
    c.sends += 1;
    layer::run(&mut c.w, sem);
    let done = layer::take_inputs(&mut c.w);
    let sent = layer::take_outputs(&mut c.w);
    let [got] = done[..] else {
        return Err(Failure::Delivery(format!(
            "{sem} {bytes} B: {} receive completions, want 1",
            done.len()
        )));
    };
    if sent.len() != 1 || got.len != bytes {
        return Err(Failure::Delivery(format!(
            "{sem} {bytes} B: {} send completions, {} B delivered",
            sent.len(),
            got.len
        )));
    }
    bytes_match(
        layer::app_matches(&mut c.w, b, c.rx, got.vaddr, data),
        || format!("{sem} {bytes} B exchange delivered other bytes"),
    )?;
    if let Some(region) = got.region {
        layer::release_region(&mut c.w, b, region, sem)?;
    }
    Ok(got.latency)
}

/// One op: an exchange at each size.
fn round(c: &mut Cell, p: &Payloads, n: usize) {
    if c.failure.is_some() {
        return;
    }
    c.attempted += 1;
    let _op = span::op(tag(c.sem));
    for (i, variants) in p.iter().enumerate() {
        match exchange(c, i, &variants[n % 2]) {
            Ok(lat) => c.latencies.push(lat.0),
            Err(f) => {
                c.failure = Some(f);
                return;
            }
        }
    }
}

/// Runs `f` on a runner worker inside a `bench.cell` span parented
/// under the dispatching span, then hands the worker's spans over.
fn on_worker<R>(parent: u64, t: u8, f: impl FnOnce() -> R) -> R {
    let r = {
        let _adopt = span::adopt(parent);
        let _cell = span::enter("bench.cell", t);
        f()
    };
    span::flush();
    r
}

/// One repetition: build the 32 cells and run a warm-up round on each
/// (set-up), then `ROUNDS` timed rounds per cell on the runner.
pub fn rep(seed: u64, threads: usize) -> Rep {
    let mut rep = Rep::default();

    // Set-up runs on this thread, so every world lives in one
    // allocator arena and peak memory does not depend on scheduling.
    let t0 = Instant::now();
    let p = payloads(seed);
    let cells: Vec<Mutex<Cell>> = (0..4 * Semantics::ALL.len())
        .map(|ci| {
            let mut c = build_cell(ci);
            round(&mut c, &p, 0);
            Mutex::new(c)
        })
        .collect();
    rep.setup = t0.elapsed();

    let t1 = Instant::now();
    {
        let g = span::enter("runner.map", span::NO_TAG);
        let parent = g.id();
        genie_runner::with_threads(threads, || {
            // Cells go out in index order, so the same cells share the
            // machine in every run; the seed only picks payload bytes.
            genie_runner::map(&cells, |cell| {
                let mut c = cell.lock().expect("cell lock poisoned");
                on_worker(parent, tag(c.sem), || {
                    let start = Instant::now();
                    for n in 1..=ROUNDS {
                        let t = Instant::now();
                        round(&mut c, &p, n);
                        c.op_ns.push(t.elapsed().as_nanos() as u64);
                    }
                    c.busy = start.elapsed();
                })
            })
        });
    }
    let wall = t1.elapsed();
    rep.timed = wall;

    let mut digest = Digest::default();
    let mut counters = Counters::new();
    let mut busy = Duration::ZERO;
    for cell in cells {
        let c = cell.into_inner().expect("cell lock poisoned");
        rep.attempted += c.attempted;
        busy += c.busy;
        if let Some(f) = c.failure {
            rep.failures.push(f);
            continue;
        }
        rep.dgrams += (ROUNDS * SIZES.len()) as u64;
        rep.dgrams_by_sem[usize::from(tag(c.sem))] += ((ROUNDS + 1) * SIZES.len()) as u64;
        rep.op_ns.extend_from_slice(&c.op_ns);
        for &l in &c.latencies {
            digest.add(l);
        }
        add_world_counters(&mut counters, &c.w);
        *counters.entry("bench.sends").or_default() += c.sends;
        layer::world_drop(c.w);
    }
    rep.digest = digest.value();
    rep.counters = counters;
    rep.runner = Some(RunnerBusy {
        cell_busy: busy,
        wall,
        threads,
    });
    rep
}
