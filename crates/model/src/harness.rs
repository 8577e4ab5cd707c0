//! The differential harness: runs one [`Scenario`] through both the
//! reference model and the real simulator, demanding byte-equal
//! observable state after **every** op — op outcome, completions
//! (sequence, length, bytes), and a probe sweep over every tracked
//! buffer. On divergence it shrinks to a minimal counterexample and
//! emits a replayable `.ops` file.
//!
//! Replay: `GENIE_MODEL_SEED=<seed> cargo test --test
//! model_differential` re-runs one seed across the whole grid;
//! `GENIE_MODEL_TRACE=1` additionally exports a Perfetto/Chrome trace
//! of any failing scenario with a `model.divergence` instant event at
//! the disagreeing step.

use std::path::PathBuf;

use genie::{
    Allocation, ChromeTrace, HostId, InputRequest, OutputRequest, Semantics, World, WorldConfig,
};
use genie_fault::FaultConfig;
use genie_net::Vc;
use genie_vm::pageout::PageoutPolicy;
use genie_vm::{RegionHandle, SpaceId};

use crate::model::{
    ModelBug, ModelEvents, ModelParams, ModelWorld, PostOutcome, RecvDst, ReleaseOutcome,
    TouchOutcome,
};
use crate::ops::{payload, ModelOp, Scenario};

/// Model and simulator disagreed.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the op after which the states differ.
    pub step: usize,
    /// The op, rendered.
    pub op: String,
    /// What disagreed.
    pub detail: String,
    /// Chrome trace JSON of the failing run (only with
    /// `GENIE_MODEL_TRACE` set).
    pub trace_json: Option<String>,
    /// Flight-recorder crash dump of the failing run (last trace
    /// events, metrics snapshot, switch series) — always captured, so
    /// the counterexample ships with its runtime state.
    pub dump_json: Option<String>,
}

/// Deterministic summary of one passing scenario, used by the
/// determinism and non-vacuity checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Receive completions observed.
    pub recv_completions: usize,
    /// Send completions observed.
    pub send_completions: usize,
    /// Individual probe comparisons performed.
    pub probes_checked: u64,
    /// Final observable-state digest of the sending host.
    pub digest_a: u64,
    /// Final observable-state digest of the receiving host.
    pub digest_b: u64,
    /// Faults the masked plan injected (0 on unfaulted seeds).
    pub faults_injected: u64,
}

/// Where one model entity lives in the real world.
#[derive(Clone, Copy, Debug)]
struct Binding {
    host: HostId,
    space: SpaceId,
    vaddr: u64,
    region: Option<RegionHandle>,
}

fn sem_rank(s: Semantics) -> usize {
    Semantics::ALL.iter().position(|&x| x == s).unwrap()
}

fn summarize(bytes: Option<&[u8]>) -> String {
    match bytes {
        None => "inaccessible".into(),
        Some(b) => format!("{} bytes, fnv64 {:#018x}", b.len(), genie_mem::fnv64(b)),
    }
}

/// True when this seed runs with the masked fault profile (every
/// fourth seed), which recovers invisibly and so keeps strict
/// equality valid — but reorders send completions in time.
pub fn seed_is_faulted(seed: u64) -> bool {
    seed.is_multiple_of(4)
}

/// Runs one scenario differentially. `Ok` carries the deterministic
/// run summary; `Err` carries the first divergence.
pub fn run_scenario(sc: &Scenario, bug: ModelBug) -> Result<RunStats, Divergence> {
    let faulted = seed_is_faulted(sc.seed);
    let tracing = std::env::var("GENIE_MODEL_TRACE").is_ok();
    let mut w = World::new(WorldConfig {
        rx_buffering: sc.arch,
        frames_per_host: 1024,
        credit_limit: 256,
        fault: if faulted {
            FaultConfig::masked(sc.seed)
        } else {
            FaultConfig::NONE
        },
        ..WorldConfig::default()
    });
    if tracing {
        w.enable_tracing(true);
    }
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    let vc = Vc(1);
    let sem = sc.semantics;
    let mut m = ModelWorld::new(
        ModelParams {
            semantics: sem,
            arch: sc.arch,
            max_len: sc.max_len,
            page_size: w.host(HostId::A).vm.page_size(),
            header_len: genie_net::HEADER_LEN,
            emulated_copy_output_threshold: w.config().emulated_copy_output_threshold,
            emulated_share_output_threshold: w.config().emulated_share_output_threshold,
        },
        bug,
    );
    let mut bind: Vec<Binding> = Vec::new();
    let mut stats = RunStats {
        recv_completions: 0,
        send_completions: 0,
        probes_checked: 0,
        digest_a: 0,
        digest_b: 0,
        faults_injected: 0,
    };
    let mut send_counter = 0u64;
    let mut force_cells = false;

    let fail = |w: &mut World, step: usize, op: ModelOp, detail: String| -> Divergence {
        w.note_model_divergence(step);
        // Snapshot the dump before the Chrome export drains the rings.
        let dump_json = Some(w.crash_dump_json(
            &format!("model divergence at step {step}: {detail}"),
            w.now(),
        ));
        let trace_json = if tracing {
            let mut ct = ChromeTrace::new();
            ct.add_process(
                format!("model-diff {:?}/{:?}/{}", sc.semantics, sc.arch, sc.seed),
                w.take_trace(),
            );
            Some(ct.to_json())
        } else {
            None
        };
        Divergence {
            step,
            op: format!("{op:?}"),
            detail,
            trace_json,
            dump_json,
        }
    };

    for (step, &op) in sc.ops.iter().enumerate() {
        let mut expected = ModelEvents::default();
        match op {
            ModelOp::Send { len, scribble } => {
                let data = payload(sc.seed, send_counter, len);
                send_counter += 1;
                let alloc = match sem.allocation() {
                    Allocation::Application => w.host_mut(HostId::A).alloc_buffer(tx, len, 0),
                    Allocation::System => w
                        .host_mut(HostId::A)
                        .alloc_io_buffer(tx, len)
                        .map(|(_r, v)| v),
                };
                let vaddr = match alloc {
                    Ok(v) => v,
                    Err(e) => return Err(fail(&mut w, step, op, format!("source alloc: {e:?}"))),
                };
                if let Err(e) = w.app_write(HostId::A, tx, vaddr, &data) {
                    return Err(fail(&mut w, step, op, format!("source write: {e:?}")));
                }
                let id = m.add_source(data);
                bind.push(Binding {
                    host: HostId::A,
                    space: tx,
                    vaddr,
                    region: None,
                });
                if let Err(e) = w.output(HostId::A, OutputRequest::new(sem, vc, tx, vaddr, len)) {
                    return Err(fail(&mut w, step, op, format!("output refused: {e:?}")));
                }
                if m.send(id, len, scribble) {
                    let p = scribble.expect("scribble applies only when present");
                    if let Err(e) = w.app_write(HostId::A, tx, vaddr, &vec![p; len]) {
                        return Err(fail(
                            &mut w,
                            step,
                            op,
                            format!("scribble refused on a visible source: {e:?}"),
                        ));
                    }
                }
            }
            ModelOp::PostRecv => {
                let outcome = match sem.allocation() {
                    Allocation::Application => {
                        let off = w.preferred_alignment(HostId::B, vc).0;
                        let dst = match w.host_mut(HostId::B).alloc_buffer(rx, sc.max_len, off) {
                            Ok(v) => v,
                            Err(e) => {
                                return Err(fail(&mut w, step, op, format!("dest alloc: {e:?}")))
                            }
                        };
                        let id = m.add_dest();
                        bind.push(Binding {
                            host: HostId::B,
                            space: rx,
                            vaddr: dst,
                            region: None,
                        });
                        let o = m.post_recv(Some(id));
                        if let Err(e) =
                            w.input(HostId::B, InputRequest::app(sem, vc, rx, dst, sc.max_len))
                        {
                            return Err(fail(&mut w, step, op, format!("input refused: {e:?}")));
                        }
                        o
                    }
                    Allocation::System => {
                        let o = m.post_recv(None);
                        if let Err(e) =
                            w.input(HostId::B, InputRequest::system(sem, vc, rx, sc.max_len))
                        {
                            return Err(fail(&mut w, step, op, format!("input refused: {e:?}")));
                        }
                        o
                    }
                };
                if let PostOutcome::Immediate(r) = outcome {
                    expected.recvs.push(r);
                }
            }
            ModelOp::Run => {
                w.run();
                expected = m.run();
            }
            ModelOp::Touch { target, pattern } => match m.touch(target, pattern) {
                TouchOutcome::Skip => {}
                TouchOutcome::Apply {
                    idx,
                    at,
                    n,
                    expect_ok,
                } => {
                    let b = bind[idx];
                    let r = w.app_write(b.host, b.space, b.vaddr + at as u64, &vec![pattern; n]);
                    if r.is_ok() != expect_ok {
                        return Err(fail(
                            &mut w,
                            step,
                            op,
                            format!(
                                "touch of entity {idx}: world says {:?}, model predicts {}",
                                r.err(),
                                if expect_ok { "success" } else { "fault" }
                            ),
                        ));
                    }
                    if expect_ok {
                        // The application reads the whole buffer back,
                        // faulting the window fully resident again
                        // (the model's `mapped` flag mirrors this).
                        let e = &m.entities()[idx];
                        let read = w.read_app(b.host, b.space, b.vaddr, e.window);
                        if read.as_deref().ok() != Some(&e.bytes[..e.window]) {
                            return Err(fail(
                                &mut w,
                                step,
                                op,
                                format!(
                                    "read-back after touch of entity {idx}: world {}, model {}",
                                    summarize(read.as_deref().ok()),
                                    summarize(Some(&e.bytes[..e.window]))
                                ),
                            ));
                        }
                    }
                }
            },
            ModelOp::Release { target } => match m.release(target) {
                ReleaseOutcome::Skip => {}
                ReleaseOutcome::Apply { idx } => {
                    let region = match bind[idx].region {
                        Some(r) => r,
                        None => {
                            return Err(fail(
                                &mut w,
                                step,
                                op,
                                format!("entity {idx} delivered without a region handle"),
                            ))
                        }
                    };
                    if let Err(e) = w.release_input_region(HostId::B, region, sem) {
                        return Err(fail(&mut w, step, op, format!("release refused: {e:?}")));
                    }
                }
            },
            ModelOp::Pageout { host } => {
                if m.pageout(host) {
                    let hid = if host == 0 { HostId::A } else { HostId::B };
                    let r = w
                        .host_mut(hid)
                        .vm
                        .pageout_scan(1_000_000, PageoutPolicy::InputDisabled);
                    if let Err(e) = r {
                        return Err(fail(&mut w, step, op, format!("pageout failed: {e:?}")));
                    }
                }
            }
            ModelOp::TogglePath => {
                force_cells = !force_cells;
                w.set_force_cell_path(force_cells);
            }
        }

        // Completions the op produced, versus the model's predictions.
        let wr = w.take_completed_inputs();
        let ws = w.take_completed_outputs();
        if wr.len() != expected.recvs.len() {
            return Err(fail(
                &mut w,
                step,
                op,
                format!(
                    "{} receive completion(s), model predicts {}",
                    wr.len(),
                    expected.recvs.len()
                ),
            ));
        }
        for (c, e) in wr.iter().zip(&expected.recvs) {
            if c.seq != e.seq || c.len != e.len || !c.checksum_ok {
                return Err(fail(
                    &mut w,
                    step,
                    op,
                    format!(
                        "completion seq={} len={} checksum_ok={}, model predicts seq={} len={}",
                        c.seq, c.len, c.checksum_ok, e.seq, e.len
                    ),
                ));
            }
            match e.dst {
                RecvDst::App(id) => {
                    let b = bind[id];
                    if c.vaddr != b.vaddr || c.space != b.space || c.region.is_some() {
                        return Err(fail(
                            &mut w,
                            step,
                            op,
                            format!(
                                "application delivery landed at {:?}:{:#x}, posted {:?}:{:#x}",
                                c.space, c.vaddr, b.space, b.vaddr
                            ),
                        ));
                    }
                }
                RecvDst::NewRegion(id) => {
                    let region = match c.region {
                        Some(r) => r,
                        None => {
                            return Err(fail(
                                &mut w,
                                step,
                                op,
                                "system-allocated delivery carried no region".into(),
                            ))
                        }
                    };
                    if id != bind.len() {
                        return Err(fail(
                            &mut w,
                            step,
                            op,
                            format!("entity id {} out of step with bindings {}", id, bind.len()),
                        ));
                    }
                    bind.push(Binding {
                        host: HostId::B,
                        space: c.space,
                        vaddr: c.vaddr,
                        region: Some(region),
                    });
                }
            }
            let got = w.peek_app(HostId::B, c.space, c.vaddr, c.len);
            if got.as_deref() != Some(&e.bytes[..]) {
                return Err(fail(
                    &mut w,
                    step,
                    op,
                    format!(
                        "delivered bytes for seq {}: world {}, model {}",
                        c.seq,
                        summarize(got.as_deref()),
                        summarize(Some(&e.bytes))
                    ),
                ));
            }
            // The application reads its delivery, checking the fault
            // path agrees with the peek — and faulting the window
            // resident, which is what lets a weak release keep the
            // region readable (the model assumes exactly this).
            let read = w.read_app(HostId::B, c.space, c.vaddr, c.len);
            if read.as_deref().ok() != Some(&e.bytes[..]) {
                return Err(fail(
                    &mut w,
                    step,
                    op,
                    format!(
                        "application read of seq {} disagrees with peek: {:?}",
                        c.seq,
                        read.as_ref().map(|b| b.len())
                    ),
                ));
            }
        }
        let mut got_sends: Vec<(usize, usize, usize)> = ws
            .iter()
            .map(|s| (s.len, sem_rank(s.requested), sem_rank(s.effective)))
            .collect();
        let mut exp_sends: Vec<(usize, usize, usize)> = expected
            .sends
            .iter()
            .map(|s| (s.len, sem_rank(s.requested), sem_rank(s.effective)))
            .collect();
        if faulted {
            // Masked completion-delay faults reorder send completions
            // in time (never receive completions, which stay gapless).
            got_sends.sort_unstable();
            exp_sends.sort_unstable();
        }
        if got_sends != exp_sends {
            return Err(fail(
                &mut w,
                step,
                op,
                format!("send completions {got_sends:?}, model predicts {exp_sends:?}"),
            ));
        }
        stats.recv_completions += wr.len();
        stats.send_completions += ws.len();

        // Probe sweep: every tracked buffer, every step.
        for (id, window, exp) in m.probes() {
            let b = bind[id];
            let got = w.peek_app(b.host, b.space, b.vaddr, window);
            stats.probes_checked += 1;
            let agree = match (&got, &exp) {
                (Some(g), Some(e)) => g.as_slice() == *e,
                (None, None) => true,
                _ => false,
            };
            if !agree {
                return Err(fail(
                    &mut w,
                    step,
                    op,
                    format!(
                        "probe of entity {id} ({:?}:{:#x}+{window}): world {}, model {}",
                        b.space,
                        b.vaddr,
                        summarize(got.as_deref()),
                        summarize(exp)
                    ),
                ));
            }
        }
    }
    stats.digest_a = w.observable_digest(HostId::A);
    stats.digest_b = w.observable_digest(HostId::B);
    stats.faults_injected = w.fault_stats().injected();
    Ok(stats)
}

/// Shrinks a diverging scenario to a locally-minimal op list:
/// truncate everything after the diverging step, then greedily delete
/// single ops to a fixpoint, re-running the differential after each
/// candidate deletion. Deterministic; returns the minimal scenario
/// and its divergence.
pub fn shrink(sc: &Scenario, bug: ModelBug) -> (Scenario, Divergence) {
    shrink_ops(sc, |s| &mut s.ops, |d| d.step, |s| run_scenario(s, bug))
}

/// The fixpoint loop behind [`shrink`], [`crate::shrink_cq`] and
/// [`crate::shrink_switch`]. `ops` reaches a scenario's op list, `step`
/// a divergence's diverging op index, and `run` replays a candidate
/// (`Err` means it still diverges).
pub(crate) fn shrink_ops<S: Clone, O, D, T>(
    sc: &S,
    ops: fn(&mut S) -> &mut Vec<O>,
    step: fn(&D) -> usize,
    run: impl Fn(&S) -> Result<T, D>,
) -> (S, D) {
    // Drop every op after the diverging one (clamped to the list).
    let truncate = |s: &mut S, d: &D| {
        let ops = ops(s);
        ops.truncate(step(d).min(ops.len().saturating_sub(1)) + 1);
    };
    let mut cur = sc.clone();
    let mut div = match run(&cur) {
        Err(d) => d,
        Ok(_) => panic!("shrink called on a passing scenario"),
    };
    truncate(&mut cur, &div);
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < ops(&mut cur).len() {
            let mut cand = cur.clone();
            ops(&mut cand).remove(i);
            match run(&cand) {
                Err(d) => {
                    truncate(&mut cand, &d);
                    (cur, div) = (cand, d);
                    progressed = true;
                }
                Ok(_) => i += 1,
            }
        }
        if !progressed {
            return (cur, div);
        }
    }
}

/// A fully-processed failure: the original and shrunk scenarios, the
/// divergence, and where the replayable counterexample landed.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// The generated scenario that first diverged.
    pub scenario: Scenario,
    /// The shrunk, locally-minimal scenario.
    pub minimal: Scenario,
    /// The minimal scenario's divergence.
    pub divergence: Divergence,
    /// Counterexample file, if it could be written.
    pub path: Option<PathBuf>,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "model divergence: sem={:?} arch={:?} seed={}",
            self.scenario.semantics, self.scenario.arch, self.scenario.seed
        )?;
        writeln!(
            f,
            "  step {} ({}): {}",
            self.divergence.step, self.divergence.op, self.divergence.detail
        )?;
        writeln!(
            f,
            "  minimal counterexample: {} op(s){}",
            self.minimal.ops.len(),
            match &self.path {
                Some(p) => format!(", written to {}", p.display()),
                None => String::new(),
            }
        )?;
        write!(
            f,
            "  reproduce: GENIE_MODEL_SEED={} cargo test --test model_differential",
            self.scenario.seed
        )
    }
}

/// Writes the shrunk counterexample as a replayable `.ops` file, its
/// flight-recorder crash dump (`{stem}.dump.json`), plus the Chrome
/// trace when one was captured. Directory: `GENIE_MODEL_CE_DIR`,
/// default `target/model-counterexamples`.
pub fn emit_counterexample(minimal: &Scenario, div: &Divergence) -> Option<PathBuf> {
    let dir = std::env::var("GENIE_MODEL_CE_DIR")
        .unwrap_or_else(|_| "target/model-counterexamples".into());
    std::fs::create_dir_all(&dir).ok()?;
    let stem = format!(
        "ce_{:?}_{:?}_{}",
        minimal.semantics, minimal.arch, minimal.seed
    );
    let path = PathBuf::from(&dir).join(format!("{stem}.ops"));
    let body = format!(
        "# model-differential counterexample\n# step {} ({}): {}\n{}",
        div.step,
        div.op,
        div.detail,
        minimal.to_ops_string()
    );
    std::fs::write(&path, body).ok()?;
    if let Some(json) = &div.trace_json {
        let _ = std::fs::write(PathBuf::from(&dir).join(format!("{stem}.trace.json")), json);
    }
    if let Some(json) = &div.dump_json {
        let _ = std::fs::write(PathBuf::from(&dir).join(format!("{stem}.dump.json")), json);
    }
    Some(path)
}

/// The one-call entry point used by the sweep: generate, run, and on
/// divergence shrink + emit. The error is ready to print.
pub fn check(
    semantics: Semantics,
    arch: genie_net::InputBuffering,
    seed: u64,
) -> Result<RunStats, Box<FailureReport>> {
    let sc = Scenario::generate(semantics, arch, seed);
    match run_scenario(&sc, ModelBug::None) {
        Ok(stats) => Ok(stats),
        Err(_) => {
            let (minimal, divergence) = shrink(&sc, ModelBug::None);
            let path = emit_counterexample(&minimal, &divergence);
            Err(Box::new(FailureReport {
                scenario: sc,
                minimal,
                divergence,
                path,
            }))
        }
    }
}
