//! Turning repetitions and spans into the published metrics.

use std::collections::HashMap;
use std::time::Duration;

use genie::Semantics;

use crate::layer::sem_name;
use crate::span::Span;
use crate::workload::Rep;

/// A named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A metric; a non-finite value (an empty base) reads 0.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Folds one repetition's op times into the running floors: each
/// timed op's fastest host time, ns, over the repetitions folded in.
///
/// Op `k` of every repetition does the same simulated work (the
/// same-work guard checks digests, counters and the op count), so the
/// spread of op `k`'s times is the machine's doing. Neighbour load on a
/// shared host only ever adds time, and it comes in stretches of
/// seconds that would move a median over a run; the fastest of many
/// repetitions is the op's cost on the least disturbed machine.
pub fn fold_floors(floors: &mut Vec<u64>, op_ns: &[u64]) {
    if floors.is_empty() {
        floors.extend_from_slice(op_ns);
    }
    for (f, &t) in floors.iter_mut().zip(op_ns) {
        *f = (*f).min(t);
    }
}

/// Datagrams one repetition delivers per second of floor op time: the
/// sum of its ops' floors. For two_host_sweep the ops of a repetition
/// run on several runner threads, so this is the rate of one thread;
/// the runner's parallel efficiency is `runner.busy_share`.
pub fn dgrams_per_s(dgrams: u64, floors: &[u64]) -> f64 {
    dgrams as f64 / (floors.iter().sum::<u64>() as f64 / 1e9)
}

/// The end-to-end metrics of an untraced run: `reps` are its
/// repetitions and `floors` their op floors.
pub fn end_to_end(reps: &[&Rep], floors: &[u64], peak_rss_mb: f64) -> Vec<Metric> {
    let dgrams = reps.first().map_or(0, |r| r.dgrams);
    let mut sorted = floors.to_vec();
    sorted.sort_unstable();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup.as_secs_f64()).collect();
    vec![
        metric("dgrams_per_s", dgrams_per_s(dgrams, floors), "1/s"),
        metric("op_us_p50", percentile(&sorted, 0.50) as f64 / 1e3, "us"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// The wall-clock rate of an untraced run, contention included, for
/// the text report only: the median over repetitions of each
/// repetition's datagrams per second of timed wall clock.
pub fn wall_clock(reps: &[&Rep]) -> String {
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.dgrams as f64 / r.timed.as_secs_f64().max(1e-12))
        .collect();
    format!(
        "# wall clock, contention included: median repetition {:.0} dgrams/s",
        median(&rates)
    )
}

/// Per-name (and per-semantics) self time of a span set.
#[derive(Default, Debug)]
pub struct Breakdown {
    /// (name, tag) → (calls, self ns, units).
    by: HashMap<(&'static str, u8), (u64, i64, u64)>,
    /// Spans whose children cover more than the span itself.
    pub overlaps: u64,
    /// Sum of every root span's duration, over all threads.
    pub thread_ns: u64,
}

impl Breakdown {
    /// Computes self times: a span's duration minus its same-thread
    /// children's durations.
    pub fn of(spans: &[Span]) -> Breakdown {
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut child_ns = vec![0u64; spans.len()];
        let mut b = Breakdown::default();
        for s in spans {
            match index.get(&s.parent) {
                Some(&p) if spans[p].thread == s.thread => child_ns[p] += s.dur_ns(),
                _ => b.thread_ns += s.dur_ns(),
            }
        }
        for (s, &children) in spans.iter().zip(&child_ns) {
            let own = s.dur_ns() as i64 - children as i64;
            if own < 0 {
                b.overlaps += 1;
            }
            let e = b.by.entry((s.name, s.tag)).or_default();
            e.0 += 1;
            e.1 += own;
            e.2 += s.units;
        }
        b
    }

    /// (calls, self ns, units) of `name` under every tag, or one tag.
    pub fn get(&self, name: &str, tag: Option<u8>) -> (u64, f64, u64) {
        let mut out = (0, 0.0, 0);
        for ((n, t), (c, ns, u)) in &self.by {
            if *n == name && tag.is_none_or(|x| x == *t) {
                out.0 += c;
                out.1 += *ns as f64;
                out.2 += u;
            }
        }
        out
    }

    /// Self ns of every span whose name starts with `prefix`.
    pub fn self_ns_with_prefix(&self, prefix: &str) -> f64 {
        self.by
            .iter()
            .filter(|((n, _), _)| n.starts_with(prefix))
            .map(|(_, (_, ns, _))| *ns as f64)
            .sum()
    }

    /// Sum of every span's self time.
    pub fn total_self_ns(&self) -> f64 {
        self.by.values().map(|(_, ns, _)| *ns as f64).sum()
    }
}

/// The traced run's reconciliation: main-thread spans against the wall
/// clock of the traced repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Reconciliation {
    /// Wall clock of the traced repetitions, ns.
    pub wall_ns: f64,
    /// Root (`bench.rep`) span time on the main thread, ns.
    pub attributed_ns: f64,
    /// `|wall - attributed| / wall`.
    pub error: f64,
}

/// The bound the reconciliation error must stay within.
pub const RECONCILE_BOUND: f64 = 0.02;

impl Reconciliation {
    /// Compares the `bench.rep` spans against the measured wall clock.
    pub fn of(spans: &[Span], wall: Duration) -> Reconciliation {
        let wall_ns = wall.as_nanos() as f64;
        let attributed_ns: f64 = spans
            .iter()
            .filter(|s| s.name == "bench.rep")
            .map(|s| s.dur_ns() as f64)
            .sum();
        Reconciliation {
            wall_ns,
            attributed_ns,
            error: (wall_ns - attributed_ns).abs() / wall_ns.max(1.0),
        }
    }

    /// Whether the spans account for the wall clock within the bound.
    pub fn holds(&self) -> bool {
        self.error <= RECONCILE_BOUND
    }
}

/// Per-layer metrics of a traced run.
pub struct Layers<'a> {
    /// Self times of the traced repetitions' spans.
    pub b: &'a Breakdown,
    /// The traced repetitions.
    pub traced: Vec<&'a Rep>,
    /// The untraced repetitions of the same run.
    pub untraced: Vec<&'a Rep>,
    /// Op floors of the traced and of the untraced repetitions.
    pub traced_floors: &'a [u64],
    pub untraced_floors: &'a [u64],
}

impl Layers<'_> {
    fn rate(&self, reps: &[&Rep], floors: &[u64]) -> f64 {
        dgrams_per_s(reps.first().map_or(0, |r| r.dgrams), floors)
    }

    fn per_call(&self, name: &str, tag: Option<u8>) -> f64 {
        let (calls, ns, _) = self.b.get(name, tag);
        if calls == 0 {
            0.0
        } else {
            ns / calls as f64
        }
    }

    fn per_unit(&self, name: &str, scale: f64) -> f64 {
        let (_, ns, units) = self.b.get(name, None);
        if units == 0 {
            0.0
        } else {
            ns / (units as f64 / scale)
        }
    }

    /// Every per-layer host-time metric.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = Vec::new();
        m.push(metric(
            "core.world.new_us",
            self.per_call("core.world.new", None) / 1e3,
            "us",
        ));
        m.push(metric(
            "core.output.ns_per_call",
            self.per_call("core.output", None),
            "ns",
        ));
        for (t, s) in Semantics::ALL.iter().enumerate() {
            m.push(metric(
                format!("core.output.ns_per_call.{}", sem_name(*s)),
                self.per_call("core.output", Some(t as u8)),
                "ns",
            ));
        }
        m.push(metric(
            "core.input.ns_per_call",
            self.per_call("core.input", None),
            "ns",
        ));
        let mut by_sem = [0u64; 8];
        for r in &self.traced {
            for (a, d) in by_sem.iter_mut().zip(r.dgrams_by_sem) {
                *a += d;
            }
        }
        let run_ns = |tag: Option<u8>| self.b.get("core.run", tag).1;
        let all: u64 = by_sem.iter().sum();
        m.push(metric(
            "core.run.ns_per_dgram",
            if all == 0 {
                0.0
            } else {
                run_ns(None) / all as f64
            },
            "ns/dgram",
        ));
        for (t, s) in Semantics::ALL.iter().enumerate() {
            let d = by_sem[t];
            m.push(metric(
                format!("core.run.ns_per_dgram.{}", sem_name(*s)),
                if d == 0 {
                    0.0
                } else {
                    run_ns(Some(t as u8)) / d as f64
                },
                "ns/dgram",
            ));
        }
        m.push(metric(
            "core.run.ns_per_call",
            self.per_call("core.run", None),
            "ns",
        ));
        m.push(metric(
            "core.completions.ns_per_call",
            self.per_call("core.completions", None),
            "ns",
        ));
        m.push(metric(
            "mem.alloc.ns_per_call",
            self.per_call("mem.alloc", None),
            "ns",
        ));
        m.push(metric(
            "mem.free.ns_per_call",
            self.per_call("mem.free", None),
            "ns",
        ));
        m.push(metric(
            "vm.write.ns_per_kb",
            self.per_unit("vm.write", 1024.0),
            "ns/KB",
        ));
        m.push(metric(
            "vm.verify.ns_per_kb",
            self.per_unit("vm.verify", 1024.0),
            "ns/KB",
        ));
        m.push(metric(
            "vm.release.ns_per_call",
            self.per_call("vm.release", None),
            "ns",
        ));
        m.push(metric(
            "cq.post.ns_per_sqe",
            self.per_call("cq.post", None),
            "ns/sqe",
        ));
        m.push(metric(
            "cq.submit.ns_per_sqe",
            self.per_unit("cq.submit", 1.0),
            "ns/sqe",
        ));
        m.push(metric(
            "cq.harvest.ns_per_cqe",
            self.per_unit("cq.harvest", 1.0),
            "ns/cqe",
        ));
        m.push(metric(
            "cq.poll.ns_per_cqe",
            self.per_unit("cq.poll", 1.0),
            "ns/cqe",
        ));
        let (busy, cap) = self
            .traced
            .iter()
            .chain(&self.untraced)
            .filter_map(|r| r.runner)
            .fold((0.0, 0.0), |(b, c), r| {
                (
                    b + r.cell_busy.as_secs_f64(),
                    c + r.wall.as_secs_f64() * r.threads as f64,
                )
            });
        m.push(metric(
            "runner.busy_share",
            if cap > 0.0 { busy / cap } else { 0.0 },
            "share",
        ));
        m.push(metric(
            "bench.driver.self_share",
            self.b.self_ns_with_prefix("bench.") / (self.b.thread_ns as f64).max(1.0),
            "share",
        ));
        m.push(metric(
            "bench.trace_overhead",
            self.rate(&self.untraced, self.untraced_floors)
                / self.rate(&self.traced, self.traced_floors)
                - 1.0,
            "share",
        ));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, thread: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            name,
            tag: 0,
            id,
            parent,
            op: 0,
            thread,
            start_ns: start,
            end_ns: end,
            units: 0,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = [
            span(1, 0, 0, "bench.rep", 0, 100),
            span(2, 1, 0, "core.run", 10, 30),
            span(3, 1, 0, "core.output", 40, 50),
            // A worker's span under the rep: its own thread's root.
            span(4, 1, 1, "bench.cell", 20, 80),
            span(5, 4, 1, "core.run", 25, 75),
        ];
        let b = Breakdown::of(&spans);
        assert_eq!(b.get("bench.rep", None), (1, 70.0, 0));
        assert_eq!(b.get("core.run", None), (2, 70.0, 0));
        assert_eq!(b.get("bench.cell", None), (1, 10.0, 0));
        assert_eq!(b.thread_ns, 160);
        assert_eq!(b.total_self_ns(), 160.0);
        assert_eq!(b.overlaps, 0);
        let r = Reconciliation::of(&spans, Duration::from_nanos(101));
        assert!(r.holds() && r.error > 0.0);
        assert!(!Reconciliation::of(&spans, Duration::from_nanos(200)).holds());
    }

    #[test]
    fn overlapping_children_are_flagged() {
        let spans = [
            span(1, 0, 0, "bench.op", 0, 10),
            span(2, 1, 0, "core.run", 0, 8),
            span(3, 1, 0, "core.run", 2, 9),
        ];
        assert_eq!(Breakdown::of(&spans).overlaps, 1);
    }

    #[test]
    fn floors_are_the_fastest_time_of_each_op() {
        let mut floors = Vec::new();
        for ops in [[300, 900], [500, 600], [400, 700]] {
            fold_floors(&mut floors, &ops);
        }
        assert_eq!(floors, vec![300, 600]);
        // 4 datagrams over 300 + 600 ns of floor time.
        assert!((dgrams_per_s(4, &floors) - 4.0 / 900e-9).abs() < 1e-3);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
    }
}
