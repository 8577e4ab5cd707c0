//! Host-time benchmark of the Genie simulator.
//!
//! ```text
//! perfbench --workload <two_host_sweep|fabric_fanin|cq_rpc|all> --seed N
//!           [--seconds S] [--trace 0|1]
//! perfbench --record-digests N
//! ```
//!
//! Builds worlds through the public `genie` API and runs the named
//! workload for `S` seconds of repetitions. With `--trace 0` it prints
//! the end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced repetitions and prints the per-layer metrics, the program
//! counters and the trace overhead. Every result is stamped with the
//! machine, toolchain, commit, seed and thread count. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is non-zero when any op failed.
//!
//! `--record-digests N` prints the simulated digest of one repetition
//! of every workload for seeds `0..N`, in the format of `digests.txt`.

mod check;
mod cq_rpc;
mod fanin;
mod layer;
mod report;
mod span;
mod two_host;
mod workload;

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use check::{check_digest, program_counters, recorded_digest, Failure, SameWork, Tally};
use report::{metric, Breakdown, Layers, Metric, Reconciliation, RECONCILE_BOUND};
use workload::{Rep, Workload};

/// Fewest repetitions in a run, whatever `--seconds` says: the
/// same-work guard needs two, and a traced run needs two of each kind.
const MIN_REPS: usize = 4;
/// Most spans a traced run keeps in memory (about 70 bytes each).
const SPAN_BUDGET: usize = 500_000;
/// A run stops starting repetitions after this long, so that it ends
/// well within its time limit even on a slow machine.
const HARD_STOP: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <two_host_sweep|fabric_fanin|cq_rpc|all> --seed N \
         [--seconds S] [--trace 0|1]\n       perfbench --record-digests N"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        let num = || val.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num(),
            "--seconds" => a.seconds = num(),
            "--trace" => a.trace = num() != 0,
            "--record-digests" => a.record = Some(num()),
            _ => usage(),
        }
    }
    if a.record.is_none() && a.workload.is_empty() {
        usage()
    }
    a
}

/// Machine, toolchain and commit, for stamping every result.
fn stamp(seed: u64, threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={} cpu=\"{cpu}\" rustc=\"{}\" commit={} seed={seed} threads={threads}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        git_commit()
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// directly ("unknown" outside a git checkout).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one repetition, turning a library panic into a failed op.
fn run_rep(w: Workload, seed: u64, threads: usize) -> Rep {
    catch_unwind(AssertUnwindSafe(|| {
        let _g = span::enter("bench.rep", span::NO_TAG);
        w.rep(seed, threads)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        Rep {
            attempted: 1,
            failures: vec![Failure::Panic(msg)],
            ..Rep::default()
        }
    })
}

/// What a repetition of a run feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// End-to-end metrics, or the untraced side of the trace overhead.
    Untraced,
    /// Per-layer metrics.
    Traced,
    /// Nothing: a traced run past its span budget filling its time.
    Extra,
}

/// Outcome of one workload's run.
struct Outcome {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    tally: Tally,
    correct: bool,
}

/// Runs `w` for `seconds` and computes its metrics.
fn run(w: Workload, seed: u64, seconds: u64, trace: bool, threads: usize) -> Outcome {
    let mut lines = vec![format!(
        "# workload={} seed={seed} seconds={seconds} trace={}",
        w.name(),
        u8::from(trace)
    )];
    let recorded = recorded_digest(w.name(), seed);
    let mut tally = Tally::default();
    let mut guard = SameWork::default();
    let mut reps: Vec<(Rep, Kind)> = Vec::new();
    let (mut untraced_floors, mut traced_floors) = (Vec::new(), Vec::new());
    let mut spans: Vec<span::Span> = Vec::new();
    let mut traced_wall = Duration::ZERO;
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    while reps.len() < MIN_REPS || (start.elapsed() < budget && start.elapsed() < HARD_STOP) {
        // A traced run alternates untraced and traced repetitions, so
        // both see the same machine conditions, until the span budget
        // is spent; it then fills its time with repetitions that feed
        // no metric.
        let kind = match (trace, spans.len() < SPAN_BUDGET, reps.len() % 2) {
            (false, _, _) => Kind::Untraced,
            (true, false, _) => Kind::Extra,
            (true, true, 0) => Kind::Untraced,
            (true, true, _) => Kind::Traced,
        };
        span::set_enabled(kind == Kind::Traced);
        let t = Instant::now();
        let mut rep = run_rep(w, seed, threads);
        let wall = t.elapsed();
        // Op floors compare op k across repetitions, so every
        // repetition must time the same ops.
        rep.counters
            .insert("bench.timed_ops", rep.op_ns.len() as u64);
        span::set_enabled(false);
        if kind == Kind::Traced {
            traced_wall += wall;
            spans.extend(span::take());
        }
        tally.attempted += rep.attempted;
        for f in &rep.failures {
            tally.fail(f);
        }
        if rep.failures.is_empty() {
            let checks = [
                check_digest(rep.digest, recorded),
                guard.check(reps.len(), rep.digest, &rep.counters),
            ];
            for f in checks.iter().filter_map(|c| c.as_ref().err()) {
                tally.fail(f);
            }
        }
        match kind {
            Kind::Untraced => report::fold_floors(&mut untraced_floors, &rep.op_ns),
            Kind::Traced => report::fold_floors(&mut traced_floors, &rep.op_ns),
            Kind::Extra => {}
        }
        // Keep only what the metrics read later, so that memory does
        // not grow with the number of repetitions (and `peak_rss_mb`
        // with the machine's speed).
        rep.op_ns = Vec::new();
        if !reps.is_empty() {
            rep.counters.clear();
        }
        reps.push((rep, kind));
        if tally.failed > 0 {
            break;
        }
    }

    let of = |k: Kind| -> Vec<&Rep> {
        reps.iter()
            .filter(|(_, kind)| *kind == k)
            .map(|(r, _)| r)
            .collect()
    };
    let (untraced, traced) = (of(Kind::Untraced), of(Kind::Traced));
    lines.push(format!(
        "# {} repetitions ({} traced) of {} timed ops each; each op's floor is its \
         fastest time over the {} untraced repetitions",
        reps.len(),
        traced.len(),
        untraced_floors.len(),
        untraced.len()
    ));
    let digest = reps.first().map_or(0, |(r, _)| r.digest);
    lines.push(format!(
        "# digest {digest:016x}: {}",
        match recorded {
            Some(d) if d == digest => "matches the recorded digest".to_string(),
            Some(d) => format!("recorded digest is {d:016x}"),
            None => "no digest recorded for this seed; repetitions checked against each other"
                .to_string(),
        }
    ));

    let mut correct = tally.failed == 0;
    let metrics = if trace {
        let b = Breakdown::of(&spans);
        let recon = Reconciliation::of(&spans, traced_wall);
        let layers = Layers {
            b: &b,
            traced,
            untraced,
            traced_floors: &traced_floors,
            untraced_floors: &untraced_floors,
        };
        let mut m = layers.metrics();
        m.push(metric("bench.reconcile_error", recon.error, "share"));
        let counters = reps
            .first()
            .map(|(r, _)| r.counters.clone())
            .unwrap_or_default();
        for (name, value, unit) in program_counters(&counters) {
            m.push(metric(name, value, unit));
        }
        lines.push(format!(
            "# reconciliation: bench.rep spans cover {:.3} of {:.3} ms traced wall \
             (error {:.5}, bound {RECONCILE_BOUND}); layer + benchmark self time sum to \
             {:.3} ms of {:.3} ms thread time; {} overlapping spans",
            recon.attributed_ns / 1e6,
            recon.wall_ns / 1e6,
            recon.error,
            b.total_self_ns() / 1e6,
            b.thread_ns as f64 / 1e6,
            b.overlaps
        ));
        if !recon.holds() || b.overlaps > 0 {
            lines.push("# reconciliation FAILED".to_string());
            correct = false;
        }
        lines.push(write_spans(w, seed, &spans));
        m
    } else {
        lines.push(report::wall_clock(&untraced));
        report::end_to_end(&untraced, &untraced_floors, peak_rss_mb())
    };
    for m in &metrics {
        lines.push(format!(
            "{:<44} {:>16} {}",
            m.name,
            format_value(m.value),
            m.unit
        ));
    }
    lines.extend(tally.report());
    Outcome {
        lines,
        metrics,
        tally,
        correct,
    }
}

fn format_value(v: f64) -> String {
    if v.abs() >= 100.0 || v == v.trunc() {
        format!("{v:.1}")
    } else {
        format!("{v:.5}")
    }
}

/// Writes the traced run's spans (one per line, tab-separated) under
/// the build directory and says where.
fn write_spans(w: Workload, seed: u64, spans: &[span::Span]) -> String {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench");
    let path = dir.join(format!("spans-{}.tsv", w.name()));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "# seed {seed}")?;
        writeln!(
            f,
            "id\tparent\top\tthread\tname\ttag\tstart_ns\tend_ns\tunits"
        )?;
        for s in spans {
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.op, s.thread, s.name, s.tag, s.start_ns, s.end_ns, s.units
            )?;
        }
        f.flush()
    };
    match write() {
        Ok(()) => format!("# {} spans written to {}", spans.len(), path.display()),
        Err(e) => format!("# spans not written ({}): {e}", path.display()),
    }
}

pub(crate) fn json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn record_digests(n: u64, threads: usize) -> i32 {
    println!("# Simulated digest of one repetition per (workload, seed); see check.rs.");
    for w in Workload::ALL {
        for seed in 0..n {
            let rep = run_rep(w, seed, threads);
            if let Some(f) = rep.failures.first() {
                eprintln!("{} seed {seed}: {f}", w.name());
                return 1;
            }
            println!("{} {seed} {:016x}", w.name(), rep.digest);
        }
    }
    0
}

fn main() {
    let args = parse_args();
    let threads = nproc();
    if let Some(n) = args.record {
        std::process::exit(record_digests(n, threads));
    }
    let workloads: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::from_name(&args.workload).unwrap_or_else(|| usage())]
    };
    println!("# machine: {}", stamp(args.seed, threads));
    let mut all = Tally::default();
    let mut correct = true;
    let mut metrics = Vec::new();
    for &w in &workloads {
        // `all` prints both kinds of metric for every workload.
        let modes: &[bool] = if workloads.len() > 1 {
            &[false, true]
        } else {
            std::slice::from_ref(&args.trace)
        };
        for &trace in modes {
            let o = run(w, args.seed, args.seconds, trace, threads);
            for l in &o.lines {
                println!("{l}");
            }
            all.attempted += o.tally.attempted;
            all.failed += o.tally.failed;
            correct &= o.correct;
            for mut m in o.metrics {
                if workloads.len() > 1 {
                    m.name = format!("{}.{}", w.name(), m.name);
                }
                metrics.push(m);
            }
        }
    }
    println!("{}", json(correct, &all, &metrics));
    std::process::exit(i32::from(!correct));
}
