//! In-memory host-time spans, recorded from outside the library.
//!
//! The benchmark wraps every call it makes into a layer's public API in
//! a span (name, start, end, parent, op id). Recording is off unless a
//! traced repetition turns it on; when off, a span costs one relaxed
//! atomic load. Spans are buffered per thread, collected with [`take`],
//! and written out only when the benchmark ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call or benchmark phase, e.g. `core.output` or `bench.op`.
    pub name: &'static str,
    /// Semantics index (0..8) the call ran under, or [`NO_TAG`].
    pub tag: u8,
    /// Process-unique id (never 0).
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// Id of the `bench.op` span this span belongs to; 0 outside ops.
    pub op: u64,
    /// Recording thread (small dense index).
    pub thread: u32,
    /// Start, ns since the process's first span.
    pub start_ns: u64,
    /// End, ns since the process's first span.
    pub end_ns: u64,
    /// Work units the call covered (bytes, sqes, cqes), 0 if unused.
    pub units: u64,
}

impl Span {
    /// Wall-clock duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Tag of a span not tied to one semantics.
pub const NO_TAG: u8 = u8::MAX;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct ThreadState {
    thread: u32,
    /// Open spans: (id, op id).
    stack: Vec<(u64, u64)>,
    /// Parent for this thread's roots (a span on another thread).
    adopted: (u64, u64),
    done: Vec<Span>,
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        adopted: (0, 0),
        done: Vec::new(),
    });
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; closing happens on drop.
pub struct Guard {
    open: Option<Span>,
}

impl Guard {
    /// Sets the work units the span covered.
    pub fn units(&mut self, n: u64) {
        if let Some(s) = &mut self.open {
            s.units = n;
        }
    }

    /// This span's id (0 when recording is off).
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |s| s.id)
    }
}

fn open(name: &'static str, tag: u8, new_op: bool) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let mut span = STATE.with(|st| {
        let mut st = st.borrow_mut();
        let (parent, op) = st.stack.last().copied().unwrap_or(st.adopted);
        let op = if new_op { id } else { op };
        st.stack.push((id, op));
        Span {
            name,
            tag,
            id,
            parent,
            op,
            thread: st.thread,
            start_ns: 0,
            end_ns: 0,
            units: 0,
        }
    });
    span.start_ns = now_ns();
    Guard { open: Some(span) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            span.end_ns = now_ns();
            STATE.with(|st| {
                let mut st = st.borrow_mut();
                st.stack.pop();
                st.done.push(span);
            });
        }
    }
}

/// Opens a span around a layer call or benchmark phase.
pub fn enter(name: &'static str, tag: u8) -> Guard {
    open(name, tag, false)
}

/// Opens a `bench.op` span: it and everything under it share its id as
/// their op id.
pub fn op(tag: u8) -> Guard {
    open("bench.op", tag, true)
}

/// Runs `f` inside a span.
pub fn call<R>(name: &'static str, tag: u8, f: impl FnOnce() -> R) -> R {
    let _g = enter(name, tag);
    f()
}

/// Parents this thread's root spans under `parent` (a span open on
/// another thread) until the returned guard drops.
pub fn adopt(parent: u64) -> impl Drop {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            STATE.with(|st| st.borrow_mut().adopted = (0, 0));
        }
    }
    STATE.with(|st| st.borrow_mut().adopted = (parent, 0));
    Restore
}

/// Moves this thread's finished spans to the process-wide buffer.
pub fn flush() {
    let done = STATE.with(|st| std::mem::take(&mut st.borrow_mut().done));
    if !done.is_empty() {
        SINK.lock()
            .expect("span buffer poisoned")
            .extend_from_slice(&done);
    }
}

/// Drains every span recorded so far (this thread's included).
pub fn take() -> Vec<Span> {
    flush();
    std::mem::take(&mut *SINK.lock().expect("span buffer poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test that turns recording on, so parallel tests never
    /// see it enabled.
    #[test]
    fn spans_nest_share_op_ids_and_cost_nothing_when_off() {
        call("core.run", 0, || ());
        assert!(take().is_empty());
        set_enabled(true);
        {
            let _rep = enter("bench.rep", NO_TAG);
            let mut op = op(3);
            call("core.output", 3, || ());
            op.units(7);
        }
        set_enabled(false);
        // Other tests' threads may have recorded while this was on.
        let spans = take();
        let child = |n: &str, parent: u64| {
            *spans
                .iter()
                .find(|s| s.name == n && s.parent == parent)
                .unwrap()
        };
        let rep = child("bench.rep", 0);
        let op = child("bench.op", rep.id);
        let out = child("core.output", op.id);
        assert_eq!((rep.parent, rep.op), (0, 0));
        assert_eq!((op.parent, op.op, op.units), (rep.id, op.id, 7));
        assert_eq!((out.parent, out.op, out.tag), (op.id, op.id, 3));
        assert!(rep.start_ns <= op.start_ns && op.end_ns <= rep.end_ns);
    }
}
