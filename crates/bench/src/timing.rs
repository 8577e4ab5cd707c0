//! Minimal wall-clock timing harness (std-only).
//!
//! The benches and the `report --json` path both need host wall-clock
//! numbers for the simulator itself (distinct from the *simulated*
//! latencies, which are the paper's subject). `std::time::Instant` is
//! plenty for the millisecond-scale runs here; the harness does one
//! warm-up pass and then a fixed number of timed iterations so results
//! are comparable across runs.

use std::time::{Duration, Instant};

/// Wall-clock statistics for one timed closure.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Label for the timed unit.
    pub name: String,
    /// Timed iterations (after one warm-up pass).
    pub iters: u32,
    /// Mean per-iteration wall-clock time, milliseconds.
    pub mean_ms: f64,
    /// Fastest iteration, milliseconds.
    pub min_ms: f64,
    /// Slowest iteration, milliseconds.
    pub max_ms: f64,
}

impl Timing {
    /// One-line rendering used by the bench binaries.
    pub fn line(&self) -> String {
        format!(
            "{:<44} {:>9.3} ms/iter  (min {:.3}, max {:.3}, {} iters)",
            self.name, self.mean_ms, self.min_ms, self.max_ms, self.iters
        )
    }
}

/// Runs `f` once to warm up, then `iters` timed iterations.
pub fn time_named<F: FnMut()>(name: &str, iters: u32, mut f: F) -> Timing {
    f(); // warm-up: touch caches, fault in lazily-built state
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    let mut total = 0.0f64;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        min = min.min(ms);
        max = max.max(ms);
        total += ms;
    }
    Timing {
        name: name.to_string(),
        iters,
        mean_ms: total / f64::from(iters.max(1)),
        min_ms: min,
        max_ms: max,
    }
}

/// Times `f` and prints the result line to stdout (bench binaries).
pub fn bench<F: FnMut()>(name: &str, iters: u32, f: F) {
    println!("{}", time_named(name, iters, f).line());
}

/// One row of the `report --profile` table.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// Exhibit or phase name.
    pub name: String,
    /// Wall-clock time, host time (not simulated time).
    pub wall: Duration,
}

/// Renders the `report --profile` wall-clock table: one line per row,
/// then the row count and total.
pub fn profile_table(rows: &[ProfileRow]) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut out = String::from("# Profile: per-exhibit wall clock\n");
    out.push_str(&format!("  {:<12} {:>10}\n", "exhibit", "wall_ms"));
    for r in rows {
        out.push_str(&format!("  {:<12} {:>10.3}\n", r.name, ms(r.wall)));
    }
    // Summed as a `Duration`: an empty `f64` sum is -0.0, which would
    // print as "-0.000".
    let total: Duration = rows.iter().map(|r| r.wall).sum();
    out.push_str(&format!(
        "  {} rows, {:.3} ms total\n",
        rows.len(),
        ms(total)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_reports_sane_numbers() {
        let t = time_named("spin", 4, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert_eq!(t.iters, 4);
        assert!(t.min_ms <= t.mean_ms && t.mean_ms <= t.max_ms);
        assert!(t.line().contains("spin"));
    }

    #[test]
    fn profile_table_lists_phases_and_never_prints_negative_zero() {
        let empty = profile_table(&[]);
        assert!(empty.contains("0 rows, 0.000 ms total"), "{empty}");
        let rows = [
            ProfileRow {
                name: "fig3".into(),
                wall: Duration::from_micros(1_500),
            },
            ProfileRow {
                name: "fabric".into(),
                wall: Duration::from_millis(2),
            },
        ];
        let table = profile_table(&rows);
        assert!(table.contains("  fig3              1.500\n"), "{table}");
        assert!(table.contains("  fabric            2.000\n"), "{table}");
        assert!(table.contains("2 rows, 3.500 ms total\n"), "{table}");
        assert!(!table.contains("-0.000"), "{table}");
    }
}
