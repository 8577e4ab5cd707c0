//! Experiment generators: one function per table and figure of the
//! paper, shared by the `report` binary and the wall-clock benches.
//!
//! Every generator returns plain text formatted like the paper's
//! corresponding exhibit, produced by actually running the simulator
//! (figures, Tables 6–8) or by querying the implementation's own
//! structures (the taxonomy, the op tables, the machine specs).

pub mod compare;
pub mod fabric;
pub mod inspect;
pub mod timing;

pub use fabric::{
    fabric_cq_exhibit, fabric_cq_json_section, fabric_cq_run, fabric_exhibit, fabric_json_sections,
    fabric_metrics_report, fabric_scale_exhibit, fabric_scale_json_section, fabric_scale_run,
    ScaleReport,
};

use genie::oplists::{self, OpUse, Scale};
use genie::{
    latency_sweep, measure_ping_pong, throughput_mbps, ExperimentSetup, GenieConfig, Semantics,
};
use genie_analysis::{
    estimate_line, measure_line, measure_primitive_costs, param_ratios, predict_oc12_throughput,
    render_series, render_table, BufferingScheme,
};
use genie_machine::{LinkSpec, MachineSpec};

/// The eight figure-3 datagram sizes (page multiples up to 60 KB).
pub fn figure_sizes() -> Vec<usize> {
    (1..=15).map(|i| i * 4096).collect()
}

/// The short-datagram sizes of Figure 5.
pub fn short_sizes() -> Vec<usize> {
    vec![
        64, 256, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 6144, 8192,
    ]
}

fn series_for(
    setup: &ExperimentSetup,
    sizes: &[usize],
    semantics: &[Semantics],
) -> Vec<(String, Vec<(f64, f64)>)> {
    semantics
        .iter()
        .map(|&s| {
            let pts = latency_sweep(setup, s, sizes);
            (
                s.label().to_string(),
                pts.iter()
                    .map(|p| (p.bytes as f64, p.latency.as_us()))
                    .collect(),
            )
        })
        .collect()
}

/// Table 1: LAN bandwidth history (static data from the paper).
pub fn table1() -> String {
    let rows = [
        ("Token ring", "1972", "1, 4, or 16"),
        ("Ethernet", "1976", "3 or 10"),
        ("FDDI", "1987", "100"),
        ("ATM", "1989", "155, 622, or 2488"),
        ("HIPPI", "1992", "800 or 1600"),
    ]
    .iter()
    .map(|(l, y, b)| vec![l.to_string(), y.to_string(), b.to_string()])
    .collect::<Vec<_>>();
    format!(
        "# Table 1: LAN point-to-point bandwidths\n{}",
        render_table(&["LAN", "Year introduced", "Bandwidth (Mbps)"], &rows)
    )
}

/// Figure 1: the taxonomy, as implemented.
pub fn figure1() -> String {
    let rows: Vec<Vec<String>> = Semantics::ALL
        .iter()
        .map(|s| {
            vec![
                s.label().to_string(),
                format!("{:?}", s.allocation()),
                format!("{:?}", s.integrity()),
                if s.optimized() { "emulated" } else { "basic" }.to_string(),
            ]
        })
        .collect();
    format!(
        "# Figure 1: taxonomy of data passing semantics\n{}",
        render_table(
            &["semantics", "allocation", "integrity", "optimization"],
            &rows
        )
    )
}

fn oplist_cell(ops: &[OpUse]) -> String {
    if ops.is_empty() {
        "-".to_string()
    } else {
        ops.iter()
            .map(|u| {
                let mark = match u.scale {
                    Scale::Fixed => "",
                    Scale::Buffer => "(B)",
                };
                format!("{}{}", u.op.name(), mark)
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Table 2: output operations per semantics.
pub fn table2() -> String {
    let rows: Vec<Vec<String>> = Semantics::ALL
        .iter()
        .map(|&s| {
            vec![
                s.label().to_string(),
                oplist_cell(&oplists::output_prepare(s)),
                oplist_cell(&oplists::output_dispose(s)),
            ]
        })
        .collect();
    format!(
        "# Table 2: operations for data output\n{}",
        render_table(&["semantics", "prepare", "dispose"], &rows)
    )
}

/// Table 3: input operations with early demultiplexing.
pub fn table3() -> String {
    let rows: Vec<Vec<String>> = Semantics::ALL
        .iter()
        .map(|&s| {
            vec![
                s.label().to_string(),
                oplist_cell(&oplists::input_prepare_early(s)),
                oplist_cell(&oplists::input_ready_early(s)),
                oplist_cell(&oplists::input_dispose_early(s)),
            ]
        })
        .collect();
    format!(
        "# Table 3: input operations, early demultiplexing\n{}",
        render_table(&["semantics", "prepare", "ready", "dispose"], &rows)
    )
}

/// Table 4: input operations with pooled buffering.
pub fn table4() -> String {
    let rows: Vec<Vec<String>> = Semantics::ALL
        .iter()
        .map(|&s| {
            vec![
                s.label().to_string(),
                oplist_cell(&oplists::input_ready_pooled(s)),
                oplist_cell(&oplists::input_dispose_pooled(s, true)),
                oplist_cell(&oplists::input_dispose_pooled(s, false)),
            ]
        })
        .collect();
    format!(
        "# Table 4: input operations, pooled buffering\n{}",
        render_table(
            &[
                "semantics",
                "ready",
                "dispose (aligned)",
                "dispose (unaligned)"
            ],
            &rows
        )
    )
}

/// Table 5: the experimental platforms.
pub fn table5() -> String {
    let rows: Vec<Vec<String>> = MachineSpec::all()
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                format!("{:.2}", m.specint95),
                format!("{} KB", m.l1d_bytes / 1024),
                format!("{} KB @ {:.0} Mbps", m.l2_bytes / 1024, m.l2_bw_mbps),
                format!(
                    "{} MB @ {:.0} Mbps, {} KB page",
                    m.mem_bytes / (1024 * 1024),
                    m.mem_bw_mbps,
                    m.page_size / 1024
                ),
            ]
        })
        .collect();
    format!(
        "# Table 5: experimental platforms\n{}",
        render_table(
            &["machine", "SPECint95", "L1 D-cache", "L2 cache", "memory"],
            &rows
        )
    )
}

/// Figure 3: end-to-end latency with early demultiplexing.
pub fn figure3(machine: MachineSpec) -> String {
    let setup = ExperimentSetup::early_demux(machine);
    let series = series_for(&setup, &figure_sizes(), &Semantics::ALL);
    let mut out = render_series(
        "Figure 3: latency (us) vs datagram bytes, early demultiplexing",
        "bytes",
        &series,
    );
    out.push_str(&throughput_note(&series, 61_440));
    out
}

fn throughput_note(series: &[(String, Vec<(f64, f64)>)], at: usize) -> String {
    let mut s = format!("\nequivalent throughput for single {at}-byte datagrams:\n");
    for (label, pts) in series {
        if let Some(p) = pts.iter().find(|p| p.0 as usize == at) {
            s.push_str(&format!(
                "  {:<20} {:>5.0} Mbps\n",
                label,
                at as f64 * 8.0 / p.1
            ));
        }
    }
    s
}

/// Figure 4: CPU utilization while running the Figure 3 experiment.
pub fn figure4(machine: MachineSpec) -> String {
    let setup = ExperimentSetup::early_demux(machine);
    let sizes: Vec<usize> = [1, 3, 5, 8, 11, 15].iter().map(|i| i * 4096).collect();
    let series: Vec<(String, Vec<(f64, f64)>)> = Semantics::ALL
        .iter()
        .map(|&s| {
            let pts: Vec<(f64, f64)> = sizes
                .iter()
                .map(|&b| {
                    let (_lat, util) = measure_ping_pong(&setup, s, b, 4).expect("ping-pong");
                    (b as f64, util * 100.0)
                })
                .collect();
            (s.label().to_string(), pts)
        })
        .collect();
    render_series(
        "Figure 4: CPU utilization (%) vs datagram bytes, early demultiplexing",
        "bytes",
        &series,
    )
}

/// Figure 5: short-datagram latency with early demultiplexing
/// (thresholds and reverse copyout in action).
pub fn figure5(machine: MachineSpec) -> String {
    let setup = ExperimentSetup::early_demux(machine);
    let series = series_for(&setup, &short_sizes(), &Semantics::ALL);
    render_series(
        "Figure 5: short-datagram latency (us), early demultiplexing",
        "bytes",
        &series,
    )
}

/// Figure 6: latency with application-aligned pooled input buffering.
pub fn figure6(machine: MachineSpec) -> String {
    let setup = ExperimentSetup::pooled_aligned(machine);
    let series = series_for(&setup, &figure_sizes(), &Semantics::ALL);
    let mut out = render_series(
        "Figure 6: latency (us) vs bytes, application-aligned pooled input",
        "bytes",
        &series,
    );
    out.push_str(&throughput_note(&series, 61_440));
    out
}

/// Figure 7: latency with unaligned pooled input buffering.
pub fn figure7(machine: MachineSpec) -> String {
    let setup = ExperimentSetup::pooled_unaligned(machine);
    let series = series_for(&setup, &figure_sizes(), &Semantics::ALL);
    let mut out = render_series(
        "Figure 7: latency (us) vs bytes, unaligned pooled input",
        "bytes",
        &series,
    );
    out.push_str(&throughput_note(&series, 61_440));
    out
}

/// Table 6: primitive-operation costs from instrumented runs.
pub fn table6(machine: MachineSpec) -> String {
    let fits = measure_primitive_costs(machine, LinkSpec::oc3());
    let rows: Vec<Vec<String>> = fits
        .iter()
        .map(|f| {
            vec![
                f.op.name().to_string(),
                format!("{:.6} B + {:.1}", f.fit.slope, f.fit.intercept),
                format!("{}", f.samples),
            ]
        })
        .collect();
    format!(
        "# Table 6: primitive data-passing operation costs (us), measured\n{}",
        render_table(&["operation", "latency fit", "samples"], &rows)
    )
}

/// Table 7: estimated vs actual end-to-end latency fits.
pub fn table7(machine: MachineSpec) -> String {
    let model = genie_machine::CostModel::new(machine.clone());
    let link = LinkSpec::oc3();
    let schemes = [
        BufferingScheme::EarlyDemux,
        BufferingScheme::PooledAligned,
        BufferingScheme::PooledUnaligned,
    ];
    let mut rows = Vec::new();
    for sem in Semantics::ALL {
        let mut e_row = vec![sem.label().to_string(), "E".to_string()];
        let mut a_row = vec![String::new(), "A".to_string()];
        for scheme in schemes {
            let e = estimate_line(&model, &link, sem, scheme);
            let a = measure_line(machine.clone(), link.clone(), sem, scheme);
            e_row.push(format!("{:.4} B + {:.0}", e.fit.slope, e.fit.intercept));
            a_row.push(format!("{:.4} B + {:.0}", a.fit.slope, a.fit.intercept));
        }
        rows.push(e_row);
        rows.push(a_row);
    }
    format!(
        "# Table 7: estimated (E) and actual (A) end-to-end latencies (us)\n{}",
        render_table(
            &[
                "semantics",
                "",
                "early demultiplexing",
                "appl.-aligned pooled",
                "unaligned pooled",
            ],
            &rows
        )
    )
}

/// Table 8: cross-platform scaling of data-passing costs.
pub fn table8() -> String {
    let base_machine = MachineSpec::micron_p166();
    let base = measure_primitive_costs(base_machine.clone(), LinkSpec::oc3());
    let mut out =
        String::from("# Table 8: scaling of data passing costs relative to the Micron P166\n");
    for other_machine in [
        MachineSpec::gateway_p5_90(),
        MachineSpec::alphastation_255(),
    ] {
        let other = measure_primitive_costs(other_machine.clone(), LinkSpec::oc3());
        let summaries = param_ratios(&base_machine, &other_machine, &base, &other);
        let rows: Vec<Vec<String>> = summaries
            .iter()
            .map(|s| {
                vec![
                    s.class.label().to_string(),
                    format!("> {:.2}", s.estimated),
                    format!("{:.2}", s.gm),
                    format!("{:.2}", s.min),
                    format!("{:.2}", s.max),
                    format!("{}", s.count),
                ]
            })
            .collect();
        out.push_str(&format!("\n## {}\n", other_machine.name));
        out.push_str(&render_table(
            &["type of parameter", "estimated", "GM", "min", "max", "n"],
            &rows,
        ));
    }
    out
}

/// Section 8's OC-12 extrapolation.
pub fn oc12() -> String {
    let mut out =
        String::from("# Section 8: predicted 60 KB throughput at OC-12 (622 Mbps), Micron P166\n");
    let paper = [
        (Semantics::Copy, 140.0),
        (Semantics::EmulatedCopy, 404.0),
        (Semantics::EmulatedShare, 463.0),
        (Semantics::Move, 380.0),
    ];
    out.push_str(&format!(
        "{:<20} {:>12} {:>12}\n",
        "semantics", "model Mbps", "paper Mbps"
    ));
    for (sem, want) in paper {
        let got = predict_oc12_throughput(MachineSpec::micron_p166(), sem);
        out.push_str(&format!(
            "{:<20} {:>12.0} {:>12.0}\n",
            sem.label(),
            got,
            want
        ));
    }
    // And measured through the full simulator.
    out.push_str("\nmeasured through the simulator at OC-12:\n");
    let mut setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    setup.link = LinkSpec::oc12();
    for sem in Semantics::ALL {
        let pts = latency_sweep(&setup, sem, &[61_440]);
        out.push_str(&format!(
            "{:<20} {:>12.0} Mbps\n",
            sem.label(),
            throughput_mbps(61_440, pts[0].latency)
        ));
    }
    out
}

/// Section 6.2.3: outboard buffering (simulated; the paper's hardware
/// could not measure it).
pub fn outboard(machine: MachineSpec) -> String {
    let setup = ExperimentSetup::outboard(machine);
    let series = series_for(&setup, &figure_sizes(), &Semantics::ALL);
    let mut out = render_series(
        "Outboard buffering (extension): latency (us) vs bytes",
        "bytes",
        &series,
    );
    out.push_str(&throughput_note(&series, 61_440));
    out.push_str(
        "\nper Section 6.2.3 the store-and-forward stage adds equal latency to all\n\
         semantics except emulated copy, which lands closest to emulated share.\n",
    );
    out
}

/// Ablation: TCOW vs wiring-based share on an overwrite-during-output
/// workload, and the other design-choice ablations (see the `report`
/// binary and bench suite).
pub fn ablation_thresholds(machine: MachineSpec) -> String {
    let mut with = ExperimentSetup::early_demux(machine.clone());
    let mut without = ExperimentSetup::early_demux(machine);
    without.genie = GenieConfig::default().without_thresholds();
    with.genie = GenieConfig::default();
    let sizes = [256usize, 512, 1024, 1536, 2048];
    let mut rows = Vec::new();
    for &b in &sizes {
        let w = latency_sweep(&with, Semantics::EmulatedCopy, &[b])[0].latency;
        let wo = latency_sweep(&without, Semantics::EmulatedCopy, &[b])[0].latency;
        rows.push(vec![
            format!("{b}"),
            format!("{:.0}", w.as_us()),
            format!("{:.0}", wo.as_us()),
        ]);
    }
    format!(
        "# Ablation: emulated-copy output threshold (auto-conversion to copy)\n{}",
        render_table(&["bytes", "with thresholds (us)", "without (us)"], &rows)
    )
}

/// Latency-breakdown waterfall: the operations one 60 KB early-demux
/// exchange charges, per semantics, with their simulated costs — the
/// Section 8 decomposition made visible.
pub fn breakdown_waterfall(machine: MachineSpec) -> String {
    use genie::measure_latency_recorded;
    let mut setup = ExperimentSetup::early_demux(machine);
    setup.genie = setup.genie.without_thresholds();
    let mut out =
        String::from("# Latency breakdown: per-op charges of one 60 KB exchange (early demux)\n");
    for sem in Semantics::ALL {
        let (lat, samples) =
            measure_latency_recorded(&setup, sem, 61_440).expect("instrumented run");
        out.push_str(&format!(
            "\n## {} — end-to-end {:.0} us\n",
            sem.label(),
            lat.as_us()
        ));
        let mut rows = Vec::new();
        for s in &samples {
            rows.push(vec![
                s.op.name().to_string(),
                format!("{}", s.bytes),
                format!("{}", s.units),
                format!("{:.1}", s.cost.as_us()),
            ]);
        }
        out.push_str(&render_table(&["op", "bytes", "units", "cost (us)"], &rows));
    }
    out
}
