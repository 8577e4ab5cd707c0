//! `report --profile` and `report --json` end to end: the table names
//! every row after the exhibit it timed, the fabric exhibits get a row
//! of their own, and per-exhibit wall times add up to the total.

use std::process::Command;

/// Runs `report` with `args` and returns the `--profile` table lines
/// (everything from the table header on).
fn profile_table(args: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("run report");
    assert!(out.status.success(), "report {args:?} failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let table: Vec<String> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("# Profile"))
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    assert!(!table.is_empty(), "no profile table in:\n{stdout}");
    table
}

#[test]
fn nested_sweep_cells_are_not_profiled_as_exhibits() {
    // fig3 sweeps its own cells; only the exhibit itself is a row, at
    // any thread count.
    for threads in ["1", "2"] {
        let table = profile_table(&["--profile", "--threads", threads, "fig3", "table1"]);
        let rows: Vec<&str> = table[2..table.len() - 1]
            .iter()
            .map(|l| l.split_whitespace().next().expect("row name"))
            .collect();
        assert_eq!(rows, ["table1", "fig3"], "threads {threads}: {table:#?}");
        assert!(
            table.last().expect("footer").contains("2 rows"),
            "{table:#?}"
        );
    }
}

#[test]
fn fabric_is_timed_as_its_own_row() {
    let table = profile_table(&["--profile", "fabric"]);
    assert_eq!(table.len(), 4, "{table:#?}");
    let row: Vec<&str> = table[2].split_whitespace().collect();
    assert_eq!(row[0], "fabric", "{table:#?}");
    let ms: f64 = row[1].parse().expect("wall_ms");
    assert!(ms > 0.0, "{table:#?}");
    assert!(table[3].contains("1 rows"), "{table:#?}");
    assert!(!table.iter().any(|l| l.contains("-0.000")), "{table:#?}");
}

/// The numbers following each `"key": ` in a flat JSON document.
fn json_numbers(doc: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\": ");
    doc.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &doc[i + pat.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            rest[..end].parse().expect("number")
        })
        .collect()
}

#[test]
fn exhibit_wall_times_reconcile_with_the_total() {
    // Exhibits that share memoized sweeps (fig3 and fig7 with each
    // other, table6 and table8 through the P166 fits) run one at a
    // time, so their wall times partition the total instead of
    // overlapping it.
    let dir = std::env::temp_dir().join(format!("genie_report_json_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let exhibits = ["fig3", "fig7", "table6", "table8"];
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--json", "--threads", "2"])
        .args(exhibits)
        .current_dir(&dir)
        .output()
        .expect("run report");
    assert!(out.status.success(), "report --json failed");
    let doc = std::fs::read_to_string(dir.join("BENCH_report.json")).expect("BENCH_report.json");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    let total = json_numbers(&doc, "total_wall_ms");
    let walls = json_numbers(&doc, "wall_ms");
    assert_eq!(total.len(), 1, "{doc}");
    assert_eq!(walls.len(), exhibits.len(), "{doc}");
    let (total, sum) = (total[0], walls.iter().sum::<f64>());
    // Each printed figure is rounded to the microsecond.
    let rounding = 0.0005 * (walls.len() + 1) as f64;
    assert!(
        sum <= total + rounding,
        "exhibits sum to {sum} ms > total {total} ms"
    );
    assert!(
        sum >= 0.9 * total,
        "exhibits sum to {sum} ms < 90% of total {total} ms"
    );
}
