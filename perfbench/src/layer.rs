//! Every call the benchmark makes into the library, each wrapped in a
//! span named after the layer (crate module) it enters.
//!
//! The workloads call the library only through these functions, so the
//! traced run attributes all of its host time either to a layer or to
//! the benchmark's own `bench.*` spans.

use genie::cq::{self, QueuePair, Sqe};
use genie::{
    Allocation, GenieError, HostId, InputRequest, OutputRequest, RecvCompletion, Semantics,
    SendCompletion, World, WorldConfig,
};
use genie_net::Vc;
use genie_vm::{RegionHandle, SpaceId};

use crate::span::{self, NO_TAG};

/// Span tag of a semantics: its index in [`Semantics::ALL`].
pub fn tag(s: Semantics) -> u8 {
    Semantics::ALL
        .iter()
        .position(|&x| x == s)
        .expect("every semantics is in ALL") as u8
}

/// Metric-name form of a semantics (`emulated_copy`, ...).
pub fn sem_name(s: Semantics) -> String {
    s.label().replace(' ', "_")
}

/// `World::new` plus one process per host (`core.world.new`).
pub fn world_new(cfg: WorldConfig) -> (World, Vec<SpaceId>) {
    let _g = span::enter("core.world.new", NO_TAG);
    let mut w = World::new(cfg);
    let procs = (0..w.n_hosts())
        .map(|h| w.create_process(HostId(h as u16)))
        .collect();
    (w, procs)
}

/// Drops a world (`core.world.drop`): tearing down a large world is
/// library time too.
pub fn world_drop(w: World) {
    span::call("core.world.drop", NO_TAG, || drop(w))
}

/// `World::output` (`core.output`: the send path's prepare stage).
pub fn output(w: &mut World, from: HostId, req: OutputRequest) -> Result<u64, GenieError> {
    span::call("core.output", tag(req.semantics), || w.output(from, req))
}

/// `World::input` (`core.input`).
pub fn input(w: &mut World, to: HostId, req: InputRequest) -> Result<u64, GenieError> {
    span::call("core.input", tag(req.semantics), || w.input(to, req))
}

/// `World::preferred_alignment` (`core.align`).
pub fn preferred_alignment(w: &World, host: HostId, vc: Vc) -> (usize, usize) {
    span::call("core.align", NO_TAG, || w.preferred_alignment(host, vc))
}

/// `World::run` (`core.run`), tagged with the semantics in flight.
pub fn run(w: &mut World, s: Semantics) {
    span::call("core.run", tag(s), || w.run())
}

/// `World::quiesce` (`core.quiesce`).
pub fn quiesce(w: &mut World) {
    span::call("core.quiesce", NO_TAG, || w.quiesce())
}

/// `World::take_completed_inputs` (`core.completions`).
pub fn take_inputs(w: &mut World) -> Vec<RecvCompletion> {
    span::call("core.completions", NO_TAG, || w.take_completed_inputs())
}

/// `World::take_completed_outputs` (`core.completions`).
pub fn take_outputs(w: &mut World) -> Vec<SendCompletion> {
    span::call("core.completions", NO_TAG, || w.take_completed_outputs())
}

/// `World::alloc_buffer` (`mem.alloc`).
pub fn alloc_buffer(
    w: &mut World,
    host: HostId,
    space: SpaceId,
    len: usize,
    page_off: usize,
) -> Result<u64, GenieError> {
    span::call("mem.alloc", NO_TAG, || {
        w.alloc_buffer(host, space, len, page_off)
    })
}

/// A send buffer for `s` (`mem.alloc`): an application buffer, or for
/// system-allocated semantics a region from `Host::alloc_io_buffer`.
pub fn send_buffer(
    w: &mut World,
    host: HostId,
    space: SpaceId,
    s: Semantics,
    len: usize,
) -> Result<u64, GenieError> {
    match s.allocation() {
        Allocation::Application => alloc_buffer(w, host, space, len, 0),
        Allocation::System => span::call("mem.alloc", NO_TAG, || {
            w.host_mut(host).alloc_io_buffer(space, len).map(|(_, v)| v)
        }),
    }
}

/// A receive buffer for `s` at the circuit's preferred alignment, or
/// `None` for system-allocated semantics, where the system picks it.
pub fn recv_buffer(
    w: &mut World,
    host: HostId,
    space: SpaceId,
    s: Semantics,
    vc: Vc,
    len: usize,
) -> Result<Option<u64>, GenieError> {
    match s.allocation() {
        Allocation::Application => {
            let (off, _) = preferred_alignment(w, host, vc);
            alloc_buffer(w, host, space, len, off).map(Some)
        }
        Allocation::System => Ok(None),
    }
}

/// `Host::free_buffer` (`mem.free`).
pub fn free_buffer(
    w: &mut World,
    host: HostId,
    space: SpaceId,
    vaddr: u64,
) -> Result<(), GenieError> {
    span::call("mem.free", NO_TAG, || {
        w.host_mut(host).free_buffer(space, vaddr)
    })
}

/// `World::app_write` (`vm.write`); units are bytes.
pub fn app_write(
    w: &mut World,
    host: HostId,
    space: SpaceId,
    vaddr: u64,
    data: &[u8],
) -> Result<(), GenieError> {
    let mut g = span::enter("vm.write", NO_TAG);
    g.units(data.len() as u64);
    w.app_write(host, space, vaddr, data).map(|_| ())
}

/// `World::app_matches` (`vm.verify`); units are bytes.
pub fn app_matches(
    w: &mut World,
    host: HostId,
    space: SpaceId,
    vaddr: u64,
    expected: &[u8],
) -> Result<bool, GenieError> {
    let mut g = span::enter("vm.verify", NO_TAG);
    g.units(expected.len() as u64);
    w.app_matches(host, space, vaddr, expected)
}

/// `World::release_input_region` (`vm.release`).
pub fn release_region(
    w: &mut World,
    host: HostId,
    region: RegionHandle,
    s: Semantics,
) -> Result<(), GenieError> {
    span::call("vm.release", tag(s), || {
        w.release_input_region(host, region, s)
    })
}

/// `QueuePair::post` (`cq.post`).
pub fn post(qp: &mut QueuePair, sqe: Sqe) -> Result<(), Sqe> {
    span::call("cq.post", tag(qp.semantics()), || qp.post(sqe))
}

/// `QueuePair::submit` (`cq.submit`); units are entries issued.
pub fn submit(qp: &mut QueuePair, w: &mut World) -> usize {
    let mut g = span::enter("cq.submit", tag(qp.semantics()));
    let n = qp.submit(w);
    g.units(n as u64);
    n
}

/// `cq::harvest` (`cq.harvest`); units are completions routed.
pub fn harvest(w: &mut World, qps: &mut [QueuePair]) -> usize {
    let mut g = span::enter("cq.harvest", NO_TAG);
    let n = cq::harvest(w, qps);
    g.units(n as u64);
    n
}

/// `QueuePair::poll` (`cq.poll`); units are completions returned.
pub fn poll(qp: &mut QueuePair) -> Option<genie::Cqe> {
    let mut g = span::enter("cq.poll", tag(qp.semantics()));
    let c = qp.poll();
    g.units(u64::from(c.is_some()));
    c
}
