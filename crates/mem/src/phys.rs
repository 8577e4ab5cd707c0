//! The physical memory array and frame allocator.

use crate::error::MemError;
use crate::frame::{Frame, FrameId, FrameState, IoDir};

/// Simulated physical memory: a frame table grown on demand plus a
/// LIFO free list of returned frames.
///
/// Only frames that have ever been allocated exist in the table; the
/// rest of the configured capacity is implicit. A never-allocated id
/// below capacity reads as a free frame with no page storage, so
/// building a `PhysMem` costs nothing that grows with its capacity.
///
/// Deallocation is **I/O-deferred** (paper Section 3.1): a frame with
/// nonzero input or output reference count is never placed on the free
/// list; it becomes a [`FrameState::Zombie`] and is freed by the final
/// [`PhysMem::unref_io`].
#[derive(Clone, Debug)]
pub struct PhysMem {
    page_size: usize,
    /// Configured frame count; ids `frames.len()..capacity` have never
    /// been allocated.
    capacity: usize,
    /// Frames that have ever been allocated, indexed by id.
    frames: Vec<Frame>,
    /// Returned frames, reused LIFO before any never-allocated id.
    free: Vec<FrameId>,
    /// What [`PhysMem::frame`] shows for a never-allocated id: a free
    /// frame with no storage.
    untouched: Frame,
    deferred_frees: u64,
    allocs: u64,
    deallocs: u64,
    peak_in_use: usize,
}

impl Drop for PhysMem {
    /// Returns every frame's page storage to the thread-local
    /// recycling pool, so the next `PhysMem` on this thread (the next
    /// experiment cell's world) reuses it instead of re-allocating.
    fn drop(&mut self) {
        for f in &mut self.frames {
            let (page, dirty) = f.take_storage();
            crate::pool::recycle(page, dirty);
        }
    }
}

impl PhysMem {
    /// Creates a memory of `frames` frames of `page_size` bytes each.
    /// Frame headers and page storage are both created on first
    /// allocation, so the (generous) frame budget of a world costs
    /// nothing until used.
    pub fn new(page_size: usize, frames: usize) -> Self {
        assert!(page_size.is_power_of_two(), "page size must be 2^n");
        assert!(frames <= u32::MAX as usize, "frame ids are 32-bit");
        PhysMem {
            page_size,
            capacity: frames,
            frames: Vec::new(),
            free: Vec::new(),
            untouched: Frame::unbacked(),
            deferred_frees: 0,
            allocs: 0,
            deallocs: 0,
            peak_in_use: 0,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total number of frames (the configured capacity).
    pub fn total_frames(&self) -> usize {
        self.capacity
    }

    /// Number of frames not in use: returned frames plus those never
    /// allocated.
    pub fn free_frames(&self) -> usize {
        self.free.len() + (self.capacity - self.frames.len())
    }

    /// The frames that have ever been allocated, in id order. Every
    /// other id below capacity is a free frame with no storage and no
    /// I/O references.
    pub fn existing_frames(&self) -> impl ExactSizeIterator<Item = (FrameId, &Frame)> {
        self.frames
            .iter()
            .enumerate()
            .map(|(i, f)| (FrameId(i as u32), f))
    }

    /// Number of deallocations that had to be deferred because I/O was
    /// pending (a paper-Section-3.1 safety event).
    pub fn deferred_free_count(&self) -> u64 {
        self.deferred_frees
    }

    /// Total frame allocations since creation.
    pub fn alloc_count(&self) -> u64 {
        self.allocs
    }

    /// Total frame deallocations since creation (deferred or not).
    pub fn dealloc_count(&self) -> u64 {
        self.deallocs
    }

    /// High-water mark of frames simultaneously in use.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use
    }

    /// Fraction of frames not in use, in per-mille (0..=1000).
    ///
    /// Integer units keep the value exactly reproducible across platforms;
    /// callers that throttle on memory pressure (the CQ adaptive window)
    /// compare against a per-mille threshold instead of a float.
    pub fn free_per_mille(&self) -> u32 {
        if self.capacity == 0 {
            return 0;
        }
        (self.free_frames() * 1000 / self.capacity) as u32
    }

    /// Allocates a frame (contents undefined — whatever the previous
    /// owner left there, exactly the hazard the paper's zeroing and
    /// deferred deallocation guard against).
    ///
    /// Returned frames are reused LIFO; only when none is left does
    /// the table grow by the next never-allocated id. That is the
    /// order an eagerly built free list `[n-1, …, 0]` hands ids out
    /// in, so every id a simulation sees is independent of the table
    /// being lazy.
    pub fn alloc(&mut self, owner: Option<u64>) -> Result<FrameId, MemError> {
        let id = match self.free.pop() {
            Some(id) => id,
            None if self.frames.len() < self.capacity => {
                self.frames.push(Frame::unbacked());
                FrameId((self.frames.len() - 1) as u32)
            }
            None => return Err(MemError::OutOfFrames),
        };
        let page_size = self.page_size;
        let f = &mut self.frames[id.0 as usize];
        debug_assert_eq!(f.state(), FrameState::Free);
        debug_assert!(!f.io_pending(), "free frame with pending I/O");
        f.ensure_backed(page_size);
        f.set_state(FrameState::Allocated);
        f.set_owner(owner);
        self.allocs += 1;
        let in_use = self.frames.len() - self.free.len();
        self.peak_in_use = self.peak_in_use.max(in_use);
        Ok(id)
    }

    /// Allocates a frame and zero-fills it (a no-op write when the
    /// frame was never dirtied).
    pub fn alloc_zeroed(&mut self, owner: Option<u64>) -> Result<FrameId, MemError> {
        let id = self.alloc(owner)?;
        self.frames[id.0 as usize].zero();
        Ok(id)
    }

    /// Deallocates a frame. If I/O is pending the frame becomes a
    /// zombie and is freed by the last [`PhysMem::unref_io`].
    pub fn dealloc(&mut self, id: FrameId) -> Result<(), MemError> {
        let f = self.existing_mut(id, MemError::DoubleFree(id))?;
        match f.state() {
            FrameState::Free => return Err(MemError::DoubleFree(id)),
            FrameState::Zombie => return Err(MemError::DoubleFree(id)),
            FrameState::Allocated => {}
        }
        f.set_owner(None);
        if f.io_pending() {
            f.set_state(FrameState::Zombie);
            self.deferred_frees += 1;
        } else {
            f.set_state(FrameState::Free);
            self.free.push(id);
        }
        self.deallocs += 1;
        Ok(())
    }

    /// Re-adopts a frame that is allocated or zombie (deallocated with
    /// pending I/O) into a new owner, reviving zombies. Used when the
    /// system maps input pages to a new region after the application
    /// removed the original region mid-input (paper Section 6.2.1).
    pub fn adopt(&mut self, id: FrameId, owner: Option<u64>) -> Result<(), MemError> {
        let f = self.frame_mut(id)?;
        if f.state() == FrameState::Free {
            return Err(MemError::NotAllocated(id));
        }
        f.set_state(FrameState::Allocated);
        f.set_owner(owner);
        Ok(())
    }

    /// Adds one pending I/O reference in direction `dir` (page
    /// referencing, paper Section 3.1).
    pub fn ref_io(&mut self, id: FrameId, dir: IoDir) -> Result<(), MemError> {
        let f = self.frame_mut(id)?;
        if f.state() == FrameState::Free {
            return Err(MemError::NotAllocated(id));
        }
        f.bump(dir).map_err(|()| MemError::RefOverflow(id))
    }

    /// Drops one pending I/O reference; frees the frame if it was a
    /// zombie and this was its last reference.
    pub fn unref_io(&mut self, id: FrameId, dir: IoDir) -> Result<(), MemError> {
        let f = self.existing_mut(id, MemError::RefUnderflow(id))?;
        f.drop_ref(dir).map_err(|()| MemError::RefUnderflow(id))?;
        if f.state() == FrameState::Zombie && !f.io_pending() {
            f.set_state(FrameState::Free);
            self.free.push(id);
        }
        Ok(())
    }

    /// Shared access to a frame. A never-allocated id below capacity
    /// reads as a free frame with no storage.
    pub fn frame(&self, id: FrameId) -> Result<&Frame, MemError> {
        let i = id.0 as usize;
        match self.frames.get(i) {
            Some(f) => Ok(f),
            None if i < self.capacity => Ok(&self.untouched),
            None => Err(MemError::BadFrame(id)),
        }
    }

    /// Mutable access to a frame. A never-allocated id below capacity
    /// has nothing to mutate and reports [`MemError::NotAllocated`].
    pub fn frame_mut(&mut self, id: FrameId) -> Result<&mut Frame, MemError> {
        self.existing_mut(id, MemError::NotAllocated(id))
    }

    /// Mutable access to a frame in the table. A never-allocated id
    /// below capacity reports `untouched`: the error the caller's
    /// operation gives on a free frame.
    fn existing_mut(&mut self, id: FrameId, untouched: MemError) -> Result<&mut Frame, MemError> {
        let i = id.0 as usize;
        if i < self.frames.len() {
            Ok(&mut self.frames[i])
        } else if i < self.capacity {
            Err(untouched)
        } else {
            Err(MemError::BadFrame(id))
        }
    }

    /// Reads `len` bytes at `offset` within frame `id`.
    pub fn read(&self, id: FrameId, offset: usize, len: usize) -> Result<&[u8], MemError> {
        let f = self.frame(id)?;
        Ok(&f.data()[offset..offset + len])
    }

    /// Writes `bytes` at `offset` within frame `id`.
    pub fn write(&mut self, id: FrameId, offset: usize, bytes: &[u8]) -> Result<(), MemError> {
        let f = self.frame_mut(id)?;
        f.data_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Copies `len` bytes between two frames (used for physical page
    /// copies: COW resolution, overlay passing, reverse copyout).
    pub fn copy(
        &mut self,
        src: FrameId,
        src_off: usize,
        dst: FrameId,
        dst_off: usize,
        len: usize,
    ) -> Result<(), MemError> {
        if src == dst {
            let f = self.frame_mut(src)?;
            f.data_mut().copy_within(src_off..src_off + len, dst_off);
            return Ok(());
        }
        let (a, b) = (src.0 as usize, dst.0 as usize);
        // A never-allocated or out-of-range id has no bytes to copy.
        self.frame_mut(FrameId(a.max(b) as u32))?;
        // Split the frame array to borrow source and destination
        // simultaneously.
        let (lo, hi) = self.frames.split_at_mut(a.max(b));
        let (sf, df) = if a < b {
            (&lo[a], &mut hi[0])
        } else {
            (&hi[0], &mut lo[b])
        };
        // `sf` is shared and `df` unique; with a == b handled above the
        // ranges cannot alias.
        let src_slice = &sf.data()[src_off..src_off + len];
        df.data_mut()[dst_off..dst_off + len].copy_from_slice(src_slice);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysMem {
        PhysMem::new(4096, 32)
    }

    #[test]
    fn alloc_and_free_cycle() {
        let mut m = mem();
        assert_eq!(m.free_frames(), 32);
        let a = m.alloc(Some(1)).unwrap();
        let b = m.alloc(Some(1)).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.free_frames(), 30);
        m.dealloc(a).unwrap();
        assert_eq!(m.free_frames(), 31);
        // LIFO: the next allocation reuses the just-freed frame.
        assert_eq!(m.alloc(None).unwrap(), a);
    }

    #[test]
    fn double_free_detected() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        m.dealloc(a).unwrap();
        assert_eq!(m.dealloc(a), Err(MemError::DoubleFree(a)));
    }

    #[test]
    fn exhaustion_reports_out_of_frames() {
        let mut m = PhysMem::new(4096, 2);
        m.alloc(None).unwrap();
        m.alloc(None).unwrap();
        assert_eq!(m.alloc(None), Err(MemError::OutOfFrames));
    }

    #[test]
    fn deferred_deallocation_keeps_frame_off_free_list() {
        let mut m = mem();
        let a = m.alloc(Some(7)).unwrap();
        m.write(a, 0, b"sensitive output data").unwrap();
        m.ref_io(a, IoDir::Output).unwrap();
        // Application frees its buffer while output is in flight.
        m.dealloc(a).unwrap();
        assert_eq!(m.frame(a).unwrap().state(), FrameState::Zombie);
        assert_eq!(m.free_frames(), 31);
        assert_eq!(m.deferred_free_count(), 1);
        // Another process cannot be handed this frame.
        for _ in 0..31 {
            assert_ne!(m.alloc(None).unwrap(), a);
        }
        assert_eq!(m.alloc(None), Err(MemError::OutOfFrames));
        // Data is still intact for the device.
        assert_eq!(m.read(a, 0, 21).unwrap(), b"sensitive output data");
        // I/O completes: the frame finally becomes reusable.
        m.unref_io(a, IoDir::Output).unwrap();
        assert_eq!(m.frame(a).unwrap().state(), FrameState::Free);
        assert_eq!(m.free_frames(), 1);
    }

    #[test]
    fn zombie_with_multiple_refs_waits_for_last() {
        let mut m = mem();
        let a = m.alloc(Some(1)).unwrap();
        m.ref_io(a, IoDir::Output).unwrap();
        m.ref_io(a, IoDir::Input).unwrap();
        m.dealloc(a).unwrap();
        m.unref_io(a, IoDir::Output).unwrap();
        assert_eq!(m.frame(a).unwrap().state(), FrameState::Zombie);
        m.unref_io(a, IoDir::Input).unwrap();
        assert_eq!(m.frame(a).unwrap().state(), FrameState::Free);
    }

    #[test]
    fn ref_on_free_frame_rejected() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        m.dealloc(a).unwrap();
        assert_eq!(m.ref_io(a, IoDir::Input), Err(MemError::NotAllocated(a)));
    }

    #[test]
    fn unref_underflow_rejected() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        assert_eq!(m.unref_io(a, IoDir::Input), Err(MemError::RefUnderflow(a)));
    }

    #[test]
    fn copy_between_frames_moves_real_bytes() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        let b = m.alloc(None).unwrap();
        m.write(a, 100, b"hello genie").unwrap();
        m.copy(a, 100, b, 200, 11).unwrap();
        assert_eq!(m.read(b, 200, 11).unwrap(), b"hello genie");
        // Reverse direction (dst id < src id) also works.
        m.copy(b, 200, a, 0, 11).unwrap();
        assert_eq!(m.read(a, 0, 11).unwrap(), b"hello genie");
    }

    #[test]
    fn copy_within_one_frame() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        m.write(a, 0, b"abcdef").unwrap();
        m.copy(a, 0, a, 10, 6).unwrap();
        assert_eq!(m.read(a, 10, 6).unwrap(), b"abcdef");
    }

    #[test]
    fn zeroed_allocation_scrubs_previous_contents() {
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        m.write(a, 0, b"secret").unwrap();
        m.dealloc(a).unwrap();
        let b = m.alloc_zeroed(None).unwrap();
        assert_eq!(b, a, "LIFO reuse expected");
        assert!(m.read(b, 0, 6).unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn free_list_never_hands_out_frames_with_live_io_refs() {
        // Exhaustively drain the allocator while one deallocated frame
        // still has a pending input reference: the zombie must never
        // come back until the reference is dropped.
        let mut m = PhysMem::new(4096, 8);
        let a = m.alloc(Some(1)).unwrap();
        m.ref_io(a, IoDir::Input).unwrap();
        m.dealloc(a).unwrap();
        assert_eq!(m.frame(a).unwrap().state(), FrameState::Zombie);
        let mut handed_out = 0;
        while let Ok(f) = m.alloc(None) {
            assert_ne!(f, a, "allocator handed out a frame with live I/O");
            assert!(!m.frame(f).unwrap().io_pending());
            handed_out += 1;
        }
        assert_eq!(handed_out, 7);
        // Once the device drops its reference the frame is reusable.
        m.unref_io(a, IoDir::Input).unwrap();
        assert_eq!(m.alloc(None).unwrap(), a);
    }

    #[test]
    fn storage_recycled_across_phys_mems_is_scrubbed() {
        // Page storage recycled through the thread-local pool must not
        // leak a previous world's data into a new one.
        {
            let mut m = PhysMem::new(4096, 4);
            let a = m.alloc(None).unwrap();
            m.write(a, 0, b"previous world secret").unwrap();
        } // dropped: storage goes to the pool
        let mut m2 = PhysMem::new(4096, 4);
        for _ in 0..4 {
            let id = m2.alloc(None).unwrap();
            let f = m2.frame(id).unwrap();
            assert!(
                f.data().iter().all(|&b| b == 0),
                "recycled frame {id:?} not zeroed"
            );
        }
    }

    #[test]
    fn plain_allocation_leaks_previous_contents() {
        // This is the hazard move semantics must zero against (paper
        // Table 3: "Zero-complete system pages").
        let mut m = mem();
        let a = m.alloc(None).unwrap();
        m.write(a, 0, b"secret").unwrap();
        m.dealloc(a).unwrap();
        let b = m.alloc(None).unwrap();
        assert_eq!(m.read(b, 0, 6).unwrap(), b"secret");
    }
}
