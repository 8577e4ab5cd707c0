//! `report --profile` end to end: the table names every row after the
//! exhibit it timed, and the fabric exhibits (which run outside the
//! exhibit sweep) get a row of their own.

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
    // fig3 sweeps its own cells; only the exhibit itself is a row, on
    // the serial path and on a pool alike.
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
    assert_eq!(row[..2], ["fabric", "-"], "{table:#?}");
    let ms: f64 = row[2].parse().expect("wall_ms");
    assert!(ms > 0.0, "{table:#?}");
    assert!(table[3].contains("1 rows"), "{table:#?}");
    assert!(!table.iter().any(|l| l.contains("-0.000")), "{table:#?}");
}
