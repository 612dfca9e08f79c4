//! Decoded structure-of-arrays access blocks.
//!
//! A [`Tape`] stores events delta-packed; replaying it
//! pays the nibble/zigzag decoder plus a virtual `accept` call per
//! event per consumer. The cache studies only need four fields of each
//! event — pc, data address, access kind, phase — so [`AccessBlocks`]
//! decodes a tape **once** into flat parallel arrays, chunked into
//! blocks of [`BLOCK_EVENTS`] events. Access-level consumers (the
//! one-pass cache-sweep engine, `SplitCaches`-style models) then
//! iterate cache-friendly slices instead of re-decoding the tape on
//! every pass.
//!
//! # Examples
//!
//! ```
//! use jrt_trace::{AccessBlocks, NativeInst, Phase, Tape};
//!
//! let tape = Tape::record(|rec| {
//!     use jrt_trace::TraceSink;
//!     rec.accept(&NativeInst::alu(0x1000, Phase::NativeExec));
//!     rec.accept(&NativeInst::load(0x1004, 0x2000_0000, 4, Phase::NativeExec));
//! });
//! let blocks = AccessBlocks::from_tape(&tape);
//! assert_eq!(blocks.len(), 2);
//! let b = &blocks.blocks()[0];
//! assert_eq!(b.pc[1], 0x1004);
//! assert_eq!(b.kind[0], jrt_trace::blocks::KIND_NONE);
//! assert_eq!(b.kind[1], jrt_trace::blocks::KIND_READ);
//! ```

use crate::inst::{AccessKind, NativeInst};
use crate::region::Region;
use crate::sink::{phase_index, TraceSink};
use crate::tape::Tape;

/// Events per block: large enough to amortize per-block overhead,
/// small enough that one block's arrays (~20 B/event ≈ 1.3 MB) stay
/// cache- and allocator-friendly.
pub const BLOCK_EVENTS: usize = 64 * 1024;

/// `kind` value for an event with no data-memory reference.
pub const KIND_NONE: u8 = 0;
/// `kind` value for a data read.
pub const KIND_READ: u8 = 1;
/// `kind` value for a data write.
pub const KIND_WRITE: u8 = 2;

/// Region-byte value for an address [`Region::classify`] maps to no
/// region; any other value is the region's index in [`Region::ALL`].
pub const REGION_NONE: u8 = u8::MAX;

#[inline]
fn region_byte(addr: u64) -> u8 {
    match Region::classify(addr) {
        Some(r) => r as u8,
        None => REGION_NONE,
    }
}

/// One chunk of decoded events as parallel arrays (all the same
/// length): instruction fetch address, data address, access kind, and
/// phase index into [`Phase::ALL`](crate::inst::Phase::ALL), plus the memoized
/// [`Region::classify`] results for pc and data address (classifying
/// is branchy range-compare work that every simulation pass would
/// otherwise repeat per event; here it is paid once at decode).
#[derive(Debug, Clone, Default)]
pub struct AccessBlock {
    /// Program counter (instruction-fetch address) per event.
    pub pc: Vec<u64>,
    /// Data address per event; meaningful only when `kind != KIND_NONE`.
    pub addr: Vec<u64>,
    /// Data-access kind per event ([`KIND_NONE`]/[`KIND_READ`]/[`KIND_WRITE`]).
    pub kind: Vec<u8>,
    /// Phase index into [`Phase::ALL`](crate::inst::Phase::ALL) per event.
    pub phase: Vec<u8>,
    /// [`Region::ALL`] index of `pc` per event, or [`REGION_NONE`].
    pub pc_region: Vec<u8>,
    /// [`Region::ALL`] index of `addr` per event, or [`REGION_NONE`];
    /// always [`REGION_NONE`] when `kind == KIND_NONE`.
    pub addr_region: Vec<u8>,
}

impl AccessBlock {
    /// Events in this block.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Whether the block holds no events.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Decodes a `kind` byte back into an optional [`AccessKind`].
    pub fn mem_kind(kind: u8) -> Option<AccessKind> {
        match kind {
            KIND_READ => Some(AccessKind::Read),
            KIND_WRITE => Some(AccessKind::Write),
            _ => None,
        }
    }

    fn with_capacity(n: usize) -> Self {
        AccessBlock {
            pc: Vec::with_capacity(n),
            addr: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
            phase: Vec::with_capacity(n),
            pc_region: Vec::with_capacity(n),
            addr_region: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, inst: &NativeInst) {
        self.pc.push(inst.pc);
        self.pc_region.push(region_byte(inst.pc));
        match inst.mem {
            Some(m) => {
                self.addr.push(m.addr);
                self.addr_region.push(region_byte(m.addr));
                self.kind.push(if m.kind == AccessKind::Write {
                    KIND_WRITE
                } else {
                    KIND_READ
                });
            }
            None => {
                self.addr.push(0);
                self.addr_region.push(REGION_NONE);
                self.kind.push(KIND_NONE);
            }
        }
        self.phase.push(phase_index(inst.phase) as u8);
    }
}

/// A decoded access stream: blocks of [`BLOCK_EVENTS`] events each
/// (the last may be shorter). Immutable once built; `Send + Sync`, so
/// one decode can be shared across worker threads behind an `Arc`.
#[derive(Debug, Clone, Default)]
pub struct AccessBlocks {
    blocks: Vec<AccessBlock>,
    events: u64,
}

impl AccessBlocks {
    /// Decodes `tape` into blocks (one full replay pass), keeping a
    /// copy of every block [`Tape::replay_stream`] streams.
    pub fn from_tape(tape: &Tape) -> Self {
        let mut all = AccessBlocks::default();
        tape.replay_stream(|b| {
            all.events += b.len() as u64;
            all.blocks.push(b.clone());
        });
        all
    }

    /// The decoded blocks, in stream order.
    pub fn blocks(&self) -> &[AccessBlock] {
        &self.blocks
    }

    /// Total decoded events.
    pub fn len(&self) -> u64 {
        self.events
    }

    /// Whether no event was decoded.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Approximate heap footprint of the decoded arrays in bytes.
    pub fn size_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                b.pc.capacity() * 8
                    + b.addr.capacity() * 8
                    + b.kind.capacity()
                    + b.phase.capacity()
                    + b.pc_region.capacity()
                    + b.addr_region.capacity()
            })
            .sum()
    }
}

/// A [`TraceSink`] that decodes the stream into [`AccessBlock`]s of
/// [`BLOCK_EVENTS`] events and hands each finished block to a callback:
/// one block (~1.3 MB decoded) is alive at a time, its buffers reused,
/// so a consumer can stream a tape far larger than RAM through
/// [`Tape::replay_stream`] without materializing [`AccessBlocks`].
#[derive(Debug)]
pub struct AccessBlockSink<F: FnMut(&AccessBlock)> {
    current: AccessBlock,
    emit: F,
}

impl<F: FnMut(&AccessBlock)> AccessBlockSink<F> {
    /// Creates a sink that calls `emit` once per decoded block
    /// (and once more from [`TraceSink::finish`] for a trailing
    /// partial block).
    pub fn new(emit: F) -> Self {
        AccessBlockSink {
            current: AccessBlock::with_capacity(BLOCK_EVENTS),
            emit,
        }
    }
}

impl<F: FnMut(&AccessBlock)> TraceSink for AccessBlockSink<F> {
    fn accept(&mut self, inst: &NativeInst) {
        self.current.push(inst);
        if self.current.len() == BLOCK_EVENTS {
            (self.emit)(&self.current);
            self.current.pc.clear();
            self.current.addr.clear();
            self.current.kind.clear();
            self.current.phase.clear();
            self.current.pc_region.clear();
            self.current.addr_region.clear();
        }
    }

    fn finish(&mut self) {
        if !self.current.is_empty() {
            (self.emit)(&self.current);
            self.current = AccessBlock::with_capacity(BLOCK_EVENTS);
        }
    }
}

impl Tape {
    /// Streams the tape through block-at-a-time decode: every
    /// [`BLOCK_EVENTS`]-event chunk (the last may be shorter) is
    /// decoded into a reused [`AccessBlock`] and passed to `f` in
    /// stream order. Equivalent to iterating
    /// [`AccessBlocks::from_tape`]`.blocks()` but with O(1) decoded
    /// state instead of the whole tape.
    pub fn replay_stream(&self, f: impl FnMut(&AccessBlock)) {
        let mut sink = AccessBlockSink::new(f);
        self.replay(&mut sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Phase;

    fn sample_tape(n: u64) -> Tape {
        Tape::record(|rec| {
            for k in 0..n {
                rec.accept(&NativeInst::alu(0x1000 + 4 * k, Phase::NativeExec));
                rec.accept(&NativeInst::store(
                    0x2000 + 4 * k,
                    0x2000_0000 + 8 * k,
                    4,
                    Phase::Translate,
                ));
            }
        })
    }

    #[test]
    fn decodes_all_fields() {
        let blocks = AccessBlocks::from_tape(&sample_tape(3));
        assert_eq!(blocks.len(), 6);
        let b = &blocks.blocks()[0];
        assert_eq!(b.len(), 6);
        assert_eq!(b.pc[0], 0x1000);
        assert_eq!(b.kind[0], KIND_NONE);
        assert_eq!(b.kind[1], KIND_WRITE);
        assert_eq!(b.addr[1], 0x2000_0000);
        assert_eq!(Phase::ALL[usize::from(b.phase[1])], Phase::Translate);
        assert_eq!(AccessBlock::mem_kind(b.kind[1]), Some(AccessKind::Write));
        assert_eq!(AccessBlock::mem_kind(b.kind[0]), None);
    }

    #[test]
    fn chunks_at_block_boundary() {
        // 2 events per loop iteration; BLOCK_EVENTS/2 + 1 iterations
        // spills exactly 2 events into a second block.
        let n = (BLOCK_EVENTS / 2 + 1) as u64;
        let blocks = AccessBlocks::from_tape(&sample_tape(n));
        assert_eq!(blocks.len(), 2 * n);
        assert_eq!(blocks.blocks().len(), 2);
        assert_eq!(blocks.blocks()[0].len(), BLOCK_EVENTS);
        assert_eq!(blocks.blocks()[1].len(), 2);
        assert!(blocks.size_bytes() >= BLOCK_EVENTS * 20);
    }

    #[test]
    fn region_bytes_match_classify() {
        let tape = Tape::record(|rec| {
            rec.accept(&NativeInst::load(
                crate::layout::VM_TEXT_BASE,
                crate::layout::HEAP_BASE,
                4,
                Phase::NativeExec,
            ));
            rec.accept(&NativeInst::alu(0, Phase::NativeExec)); // pc outside every region
        });
        let blocks = AccessBlocks::from_tape(&tape);
        let b = &blocks.blocks()[0];
        assert_eq!(
            Region::ALL[usize::from(b.pc_region[0])],
            Region::classify(crate::layout::VM_TEXT_BASE).unwrap()
        );
        assert_eq!(
            Region::ALL[usize::from(b.addr_region[0])],
            Region::classify(crate::layout::HEAP_BASE).unwrap()
        );
        assert_eq!(b.pc_region[1], REGION_NONE);
        assert_eq!(b.addr_region[1], REGION_NONE);
    }

    #[test]
    fn empty_tape_decodes_empty() {
        let blocks = AccessBlocks::from_tape(&Tape::default());
        assert!(blocks.is_empty());
        assert!(blocks.blocks().is_empty());
    }

    #[test]
    fn replay_stream_matches_materialized_blocks() {
        // Spills into a second (partial) block to exercise finish().
        let n = (BLOCK_EVENTS / 2 + 7) as u64;
        let tape = sample_tape(n);
        let materialized = AccessBlocks::from_tape(&tape);

        let mut streamed: Vec<AccessBlock> = Vec::new();
        tape.replay_stream(|b| streamed.push(b.clone()));

        assert_eq!(streamed.len(), materialized.blocks().len());
        for (s, m) in streamed.iter().zip(materialized.blocks()) {
            assert_eq!(s.pc, m.pc);
            assert_eq!(s.addr, m.addr);
            assert_eq!(s.kind, m.kind);
            assert_eq!(s.phase, m.phase);
            assert_eq!(s.pc_region, m.pc_region);
            assert_eq!(s.addr_region, m.addr_region);
        }
    }

    #[test]
    fn blocks_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccessBlocks>();
    }
}
