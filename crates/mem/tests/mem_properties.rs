//! Model-based randomized tests for the frame allocator: a shadow
//! model tracks which frames should be allocated/zombie/free, and
//! random operation sequences must agree with it while conserving
//! frames. Sequences come from a deterministic xorshift PRNG (std-only,
//! no external dependencies) so failures are reproducible.

use genie_mem::{FrameId, FrameState, IoDir, MemError, PhysMem};

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw from `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[derive(Clone, Debug)]
enum MemOp {
    Alloc,
    Dealloc(usize),
    RefIo(usize, bool),
    UnrefIo(usize, bool),
    Write(usize, u8),
}

/// Weighted op draw matching the original proptest strategy
/// (3 alloc : 2 dealloc : 2 ref : 2 unref : 1 write).
fn arb_op(rng: &mut Rng) -> MemOp {
    match rng.range(0, 10) {
        0..=2 => MemOp::Alloc,
        3..=4 => MemOp::Dealloc(rng.range(0, 64)),
        5..=6 => MemOp::RefIo(rng.range(0, 64), rng.flip()),
        7..=8 => MemOp::UnrefIo(rng.range(0, 64), rng.flip()),
        _ => MemOp::Write(rng.range(0, 64), rng.next_u64() as u8),
    }
}

/// Shadow model of one tracked frame.
#[derive(Clone, Debug, PartialEq)]
struct FrameModel {
    ins: u16,
    outs: u16,
    dead: bool, // deallocated (zombie if refs pending)
    byte: Option<u8>,
}

#[test]
fn allocator_agrees_with_shadow_model() {
    let mut rng = Rng::new(7);
    for case in 0..256 {
        let steps = rng.range(1, 80);
        let ops: Vec<MemOp> = (0..steps).map(|_| arb_op(&mut rng)).collect();
        run_case(case, ops);
    }
}

fn run_case(case: usize, ops: Vec<MemOp>) {
    const FRAMES: usize = 24;
    let mut mem = PhysMem::new(4096, FRAMES);
    // Tracked frames we allocated, in order.
    let mut tracked: Vec<(FrameId, FrameModel)> = Vec::new();

    for op in ops {
        match op {
            MemOp::Alloc => {
                let live = tracked
                    .iter()
                    .filter(|(_, m)| !m.dead || m.ins > 0 || m.outs > 0)
                    .count();
                match mem.alloc(Some(1)) {
                    Ok(f) => {
                        // The allocator must never hand out a frame
                        // that is still live in the model.
                        for (tf, m) in &tracked {
                            if *tf == f {
                                assert!(
                                    m.dead && m.ins == 0 && m.outs == 0,
                                    "case {case}: reallocated live frame {f:?}"
                                );
                            }
                        }
                        tracked.retain(|(tf, _)| *tf != f);
                        tracked.push((
                            f,
                            FrameModel {
                                ins: 0,
                                outs: 0,
                                dead: false,
                                byte: None,
                            },
                        ));
                    }
                    Err(MemError::OutOfFrames) => {
                        assert!(
                            live >= FRAMES,
                            "case {case}: spurious exhaustion at {live} live"
                        );
                    }
                    Err(e) => panic!("case {case}: unexpected alloc error {e}"),
                }
            }
            MemOp::Dealloc(i) => {
                let n = tracked.len().max(1);
                if let Some((f, m)) = tracked.get_mut(i % n) {
                    let r = mem.dealloc(*f);
                    if m.dead {
                        assert!(r.is_err(), "case {case}: double free allowed on {f:?}");
                    } else {
                        assert!(r.is_ok());
                        m.dead = true;
                    }
                }
            }
            MemOp::RefIo(i, input) => {
                let n = tracked.len().max(1);
                if let Some((f, m)) = tracked.get_mut(i % n) {
                    let dir = if input { IoDir::Input } else { IoDir::Output };
                    let r = mem.ref_io(*f, dir);
                    if m.dead && m.ins == 0 && m.outs == 0 {
                        assert!(r.is_err(), "case {case}: ref on free frame allowed");
                    } else {
                        assert!(r.is_ok());
                        if input {
                            m.ins += 1
                        } else {
                            m.outs += 1
                        }
                    }
                }
            }
            MemOp::UnrefIo(i, input) => {
                let n = tracked.len().max(1);
                if let Some((f, m)) = tracked.get_mut(i % n) {
                    let dir = if input { IoDir::Input } else { IoDir::Output };
                    let has = if input { m.ins > 0 } else { m.outs > 0 };
                    let r = mem.unref_io(*f, dir);
                    if has {
                        assert!(r.is_ok());
                        if input {
                            m.ins -= 1
                        } else {
                            m.outs -= 1
                        }
                    } else {
                        assert!(r.is_err(), "case {case}: refcount underflow allowed");
                    }
                }
            }
            MemOp::Write(i, b) => {
                let n = tracked.len().max(1);
                if let Some((f, m)) = tracked.get_mut(i % n) {
                    if !m.dead {
                        mem.write(*f, 7, &[b]).expect("write");
                        m.byte = Some(b);
                    }
                }
            }
        }

        // Cross-check states and contents after every step.
        for (f, m) in &tracked {
            let fr = mem.frame(*f).expect("tracked frame");
            let want = if !m.dead {
                FrameState::Allocated
            } else if m.ins > 0 || m.outs > 0 {
                FrameState::Zombie
            } else {
                FrameState::Free
            };
            // The frame may have been re-allocated by a later Alloc
            // only if our model says Free; in that case skip.
            if want != FrameState::Free {
                assert_eq!(fr.state(), want, "case {case}: frame {f:?} model {m:?}");
                assert_eq!(fr.in_count(), m.ins);
                assert_eq!(fr.out_count(), m.outs);
                if let Some(b) = m.byte {
                    assert_eq!(mem.read(*f, 7, 1).expect("read")[0], b);
                }
            }
        }
        // Conservation: free-list + live + zombies == total.
        let zombies = tracked
            .iter()
            .filter(|(f, _)| mem.frame(*f).expect("f").state() == FrameState::Zombie)
            .count();
        assert!(mem.free_frames() + (FRAMES - mem.free_frames()) == FRAMES);
        assert!(zombies <= FRAMES);
    }
}

/// The allocator as it was built before the frame table grew on
/// demand: every frame header exists from the start and the free list
/// starts as `[n-1, …, 0]`, used LIFO. The lazy table must agree with
/// it on every id, error and counter.
struct EagerReference {
    /// `(state, in_count, out_count)` per frame.
    frames: Vec<(FrameState, u16, u16)>,
    free: Vec<FrameId>,
    peak_in_use: usize,
}

impl EagerReference {
    fn new(n: usize) -> Self {
        EagerReference {
            frames: vec![(FrameState::Free, 0, 0); n],
            free: (0..n as u32).rev().map(FrameId).collect(),
            peak_in_use: 0,
        }
    }

    fn get(&mut self, id: FrameId) -> Result<&mut (FrameState, u16, u16), MemError> {
        self.frames
            .get_mut(id.0 as usize)
            .ok_or(MemError::BadFrame(id))
    }

    fn free_per_mille(&self) -> u32 {
        (self.free.len() * 1000 / self.frames.len()) as u32
    }

    fn alloc(&mut self) -> Result<FrameId, MemError> {
        let id = self.free.pop().ok_or(MemError::OutOfFrames)?;
        self.frames[id.0 as usize].0 = FrameState::Allocated;
        self.peak_in_use = self.peak_in_use.max(self.frames.len() - self.free.len());
        Ok(id)
    }

    fn dealloc(&mut self, id: FrameId) -> Result<(), MemError> {
        let f = self.get(id)?;
        if f.0 != FrameState::Allocated {
            return Err(MemError::DoubleFree(id));
        }
        if f.1 > 0 || f.2 > 0 {
            f.0 = FrameState::Zombie;
        } else {
            f.0 = FrameState::Free;
            self.free.push(id);
        }
        Ok(())
    }

    fn adopt(&mut self, id: FrameId) -> Result<(), MemError> {
        let f = self.get(id)?;
        if f.0 == FrameState::Free {
            return Err(MemError::NotAllocated(id));
        }
        f.0 = FrameState::Allocated;
        Ok(())
    }

    fn ref_io(&mut self, id: FrameId, dir: IoDir) -> Result<(), MemError> {
        let f = self.get(id)?;
        if f.0 == FrameState::Free {
            return Err(MemError::NotAllocated(id));
        }
        let c = if dir == IoDir::Input {
            &mut f.1
        } else {
            &mut f.2
        };
        *c = c.checked_add(1).ok_or(MemError::RefOverflow(id))?;
        Ok(())
    }

    fn unref_io(&mut self, id: FrameId, dir: IoDir) -> Result<(), MemError> {
        let f = self.get(id)?;
        let c = if dir == IoDir::Input {
            &mut f.1
        } else {
            &mut f.2
        };
        *c = c.checked_sub(1).ok_or(MemError::RefUnderflow(id))?;
        if f.0 == FrameState::Zombie && f.1 == 0 && f.2 == 0 {
            f.0 = FrameState::Free;
            self.free.push(id);
        }
        Ok(())
    }
}

#[test]
fn lazy_frame_table_matches_the_eager_reference() {
    const FRAMES: usize = 20;
    let mut rng = Rng::new(13);
    for case in 0..300 {
        let mut lazy = PhysMem::new(4096, FRAMES);
        let mut eager = EagerReference::new(FRAMES);
        for step in 0..rng.range(1, 160) {
            // Ids reach past capacity so the never-allocated and the
            // out-of-range cases are both drawn often.
            let id = FrameId(rng.range(0, FRAMES + 3) as u32);
            let dir = if rng.flip() {
                IoDir::Input
            } else {
                IoDir::Output
            };
            let (got, want) = match rng.range(0, 9) {
                0..=2 => (lazy.alloc(Some(1)), eager.alloc()),
                3..=4 => (
                    lazy.dealloc(id).map(|()| id),
                    eager.dealloc(id).map(|()| id),
                ),
                5 => (
                    lazy.adopt(id, Some(2)).map(|()| id),
                    eager.adopt(id).map(|()| id),
                ),
                6..=7 => (
                    lazy.ref_io(id, dir).map(|()| id),
                    eager.ref_io(id, dir).map(|()| id),
                ),
                _ => (
                    lazy.unref_io(id, dir).map(|()| id),
                    eager.unref_io(id, dir).map(|()| id),
                ),
            };
            let at = format!("case {case} step {step}");
            assert_eq!(got, want, "{at}: result");
            assert_eq!(lazy.free_frames(), eager.free.len(), "{at}: free_frames");
            assert_eq!(
                lazy.free_per_mille(),
                eager.free_per_mille(),
                "{at}: free_per_mille"
            );
            assert_eq!(lazy.peak_in_use(), eager.peak_in_use, "{at}: peak_in_use");
            assert_eq!(lazy.total_frames(), FRAMES, "{at}: total_frames");
            for i in 0..FRAMES as u32 + 3 {
                let id = FrameId(i);
                match (lazy.frame(id), eager.frames.get(i as usize)) {
                    (Ok(f), Some(&(state, ins, outs))) => {
                        assert_eq!(
                            (f.state(), f.in_count(), f.out_count()),
                            (state, ins, outs),
                            "{at}: frame {id:?}"
                        );
                    }
                    (Err(e), None) => assert_eq!(e, MemError::BadFrame(id), "{at}"),
                    (got, want) => panic!("{at}: frame {id:?}: {got:?} vs {want:?}"),
                }
            }
        }
    }
}

#[test]
fn never_allocated_ids_behave_as_free_frames() {
    let mut mem = PhysMem::new(4096, 8);
    let first = mem.alloc(None).expect("alloc");
    assert_eq!(first, FrameId(0), "ids are handed out lowest first");
    assert_eq!(mem.existing_frames().len(), 1);
    let untouched = FrameId(5);
    let f = mem.frame(untouched).expect("below capacity");
    assert_eq!(f.state(), FrameState::Free);
    assert!(
        f.data().is_empty(),
        "a never-allocated frame has no storage"
    );
    assert!(!f.io_pending());
    assert_eq!(mem.dealloc(untouched), Err(MemError::DoubleFree(untouched)));
    assert_eq!(
        mem.ref_io(untouched, IoDir::Input),
        Err(MemError::NotAllocated(untouched))
    );
    assert_eq!(
        mem.adopt(untouched, None),
        Err(MemError::NotAllocated(untouched))
    );
    assert_eq!(
        mem.unref_io(untouched, IoDir::Output),
        Err(MemError::RefUnderflow(untouched))
    );
    let beyond = FrameId(8);
    assert_eq!(mem.frame(beyond).err(), Some(MemError::BadFrame(beyond)));
    assert_eq!(mem.dealloc(beyond), Err(MemError::BadFrame(beyond)));
    assert_eq!(
        mem.unref_io(beyond, IoDir::Input),
        Err(MemError::BadFrame(beyond))
    );
    // None of the rejected calls grew the table.
    assert_eq!(mem.existing_frames().len(), 1);
    assert_eq!(mem.free_frames(), 7);
}
