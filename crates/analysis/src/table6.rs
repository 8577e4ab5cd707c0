//! Regenerating Table 6: primitive-operation cost fits from
//! instrumented runs.
//!
//! The paper instrumented the Genie code with cycle-counter probes
//! while running the experiments of Figures 3, 6 and 7, recorded the
//! latency of each primitive operation against datagram length, and
//! least-squares fitted each, averaging over the semantics and
//! buffering schemes where the operation appears. We do exactly that:
//! the simulator's [`genie_machine::CostLedger`] records every charged
//! operation while the same experiments run, and the fits below are
//! computed from those samples.

use std::collections::BTreeMap;

use genie::{Semantics, SeriesContext};
use genie_machine::{LinkSpec, MachineSpec, Op};

use crate::breakdown::{fit_sizes, BufferingScheme};
use crate::fit::{linfit, Fit};

/// A fitted primitive-operation cost line.
#[derive(Clone, Copy, Debug)]
pub struct OpFit {
    /// The operation.
    pub op: Op,
    /// Fit of cost (µs) against covered bytes.
    pub fit: Fit,
    /// Number of samples behind the fit.
    pub samples: usize,
}

/// Runs the Figure 3/6/7 experiments with instrumentation on and fits
/// each primitive operation's recorded cost against its byte count.
///
/// Operations that are only ever invoked with a fixed (zero-byte)
/// footprint get a zero-slope fit through their mean cost.
pub fn measure_primitive_costs(machine: MachineSpec, link: LinkSpec) -> Vec<OpFit> {
    // The instrumented sweeps are deterministic in (machine, link), and
    // Tables 6 and 8 both need the baseline machine's fits — memoize so
    // a full report run instruments each configuration once.
    static CACHE: std::sync::Mutex<Vec<(String, Vec<OpFit>)>> = std::sync::Mutex::new(Vec::new());
    let key = format!("{machine:?}|{link:?}");
    if let Some((_, fits)) = CACHE.lock().unwrap().iter().find(|(k, _)| *k == key) {
        return fits.clone();
    }
    let fits = instrument_primitive_costs(&machine, &link);
    CACHE.lock().unwrap().push((key, fits.clone()));
    fits
}

/// The uncached instrumented sweep behind [`measure_primitive_costs`].
fn instrument_primitive_costs(machine: &MachineSpec, link: &LinkSpec) -> Vec<OpFit> {
    let sizes = fit_sizes(machine.page_size);
    let mut by_op: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for scheme in [
        BufferingScheme::EarlyDemux,
        BufferingScheme::PooledAligned,
        BufferingScheme::PooledUnaligned,
    ] {
        let mut setup = scheme.setup(machine.clone(), link.clone());
        // Disable copy-conversion so the pure op mix is observed at
        // every size.
        setup.genie = setup.genie.without_thresholds();
        for sem in Semantics::ALL {
            let mut ctx = SeriesContext::new(&setup, &sizes);
            for &b in &sizes {
                let (_lat, samples) = ctx
                    .measure_latency_recorded(sem, b)
                    .expect("instrumented run");
                for s in samples {
                    by_op
                        .entry(s.op.id())
                        .or_default()
                        .push((s.bytes as f64, s.cost.as_us()));
                }
            }
        }
    }
    let mut out = Vec::new();
    for (id, points) in by_op {
        let op = Op::ALL[id as usize];
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let all_same_x = xs.windows(2).all(|w| w[0] == w[1]);
        let fit = if xs.len() < 2 || all_same_x {
            Fit {
                slope: 0.0,
                intercept: ys.iter().sum::<f64>() / ys.len() as f64,
                r2: 1.0,
            }
        } else {
            linfit(&xs, &ys)
        };
        out.push(OpFit {
            op,
            fit,
            samples: xs.len(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_recovered_on_p166() {
        let fits = measure_primitive_costs(MachineSpec::micron_p166(), LinkSpec::oc3());
        let get = |op: Op| {
            fits.iter()
                .find(|f| f.op == op)
                .unwrap_or_else(|| panic!("{} missing", op.name()))
                .fit
        };
        // Spot-check against the paper's Table 6.
        let cases = [
            (Op::Reference, 0.000363, 5.0),
            (Op::Unreference, 0.000100, 2.0),
            (Op::Wire, 0.00141, 18.0),
            (Op::Copyout, 0.0220, 15.0),
        ];
        for (op, slope, fixed) in cases {
            let f = get(op);
            assert!(
                (f.slope - slope).abs() / slope < 0.05,
                "{}: slope {} want {slope}",
                op.name(),
                f.slope
            );
            assert!(
                (f.intercept - fixed).abs() < 2.0,
                "{}: fixed {} want {fixed}",
                op.name(),
                f.intercept
            );
        }
        // Copyin shows the paper's negative intercept.
        let copyin = get(Op::Copyin);
        assert!(
            copyin.intercept < 0.0,
            "copyin intercept {}",
            copyin.intercept
        );
        assert!((copyin.slope - 0.0180).abs() < 0.001, "{}", copyin.slope);
        // Fixed-cost ops fit as flat lines at their Table 6 values.
        let markout = get(Op::RegionMarkOut);
        assert_eq!(markout.slope, 0.0);
        assert!((markout.intercept - 3.0).abs() < 0.2);
    }
}
