//! Resident event memory on an eight-host star: the event loop's
//! high-water mark of pending events is pinned against the traffic
//! volume, for a fan-in workload where every spoke sends to the hub and
//! the hub answers every spoke.
//!
//! The test keeps its original name from when the loop could be split
//! into shards; every world now runs one loop, and the bound applies
//! to it unchanged.

use genie::{HostId, InputRequest, OutputRequest, Semantics, World, WorldConfig};
use genie_fault::{FaultConfig, XorShift64};
use genie_machine::MachineSpec;
use genie_net::{SwitchConfig, Vc};

const HOSTS: usize = 8;
const VC_BASE: u32 = 700;

/// The planned traffic: `(src, dst, vc, len)` per datagram. Spokes fan
/// into the hub; the hub answers every spoke.
fn star_plan(seed: u64) -> Vec<(u16, u16, u32, usize)> {
    let mut rng = XorShift64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut out = Vec::new();
    for spoke in 1..HOSTS as u16 {
        for _ in 0..4 {
            let len = 1 + rng.below(2600) as usize;
            out.push((spoke, 0, VC_BASE + u32::from(spoke), len));
        }
        for _ in 0..3 {
            let len = 1 + rng.below(2600) as usize;
            out.push((0, spoke, VC_BASE + HOSTS as u32 + u32::from(spoke), len));
        }
    }
    out
}

/// Runs the star plan under copy semantics and returns the event
/// loop's high-water mark together with the number of completed
/// receives.
fn run_star_copy(traffic: &[(u16, u16, u32, usize)]) -> (usize, usize) {
    let cfg = WorldConfig {
        fault: FaultConfig::NONE,
        frames_per_host: 1024,
        ..WorldConfig::switched(
            MachineSpec::micron_p166(),
            HOSTS,
            SwitchConfig::star(HOSTS as u16, 0, VC_BASE, 256),
        )
    };
    let mut w = World::new(cfg);
    w.enable_oracle();
    let sem = Semantics::Copy;
    let spaces: Vec<_> = (0..HOSTS)
        .map(|h| w.create_process(HostId(h as u16)))
        .collect();

    for &(_src, dst, vc, len) in traffic {
        let space = spaces[usize::from(dst)];
        let buf = w.alloc_buffer(HostId(dst), space, len, 0).expect("dst buf");
        w.input(HostId(dst), InputRequest::app(sem, Vc(vc), space, buf, len))
            .expect("post input");
    }
    for (i, &(src, _dst, vc, len)) in traffic.iter().enumerate() {
        let space = spaces[usize::from(src)];
        let vaddr = w.alloc_buffer(HostId(src), space, len, 0).expect("src buf");
        let mut data = vec![(i & 0xff) as u8; len];
        if len > 1 {
            data[len - 1] = (i >> 8) as u8;
        }
        w.app_write(HostId(src), space, vaddr, &data).expect("fill");
        w.output(
            HostId(src),
            OutputRequest::new(sem, Vc(vc), space, vaddr, len),
        )
        .expect("output");
    }
    w.run();
    (w.peak_resident_events(), w.take_completed_inputs().len())
}

/// Resident event memory stays bounded: the loop's high-water mark of
/// pending events is pinned against the traffic volume, so an event
/// leak shows up as a blown bound rather than silent RSS growth.
#[test]
fn sharded_resident_event_memory_is_bounded() {
    let traffic = star_plan(0xDE7E_2215);
    let (peak_resident, delivered) = run_star_copy(&traffic);
    assert_eq!(delivered, traffic.len(), "every datagram must be received");
    assert!(peak_resident > 0, "the event loop must track residency");
    // Each datagram contributes a handful of events (transmit,
    // ingress, drain, arrival, completion); a factor of 8 over the
    // datagram count is already generous.
    assert!(
        peak_resident <= traffic.len() * 8,
        "peak resident {} for {} datagrams",
        peak_resident,
        traffic.len()
    );
}
