//! Record-once/replay-many trace **tapes**.
//!
//! The paper's methodology was to collect each benchmark's native
//! instruction stream *once* with Shade and then feed the recorded
//! trace to every architectural simulator (cachesim5, the branch
//! predictors, the superscalar model). This module is the synthetic
//! analog: a [`TapeRecorder`] is a [`TraceSink`] that packs the event
//! stream into a compact in-memory [`Tape`], and [`Tape::replay`]
//! regenerates the exact [`NativeInst`] sequence for any number of
//! downstream consumers — combined, if desired, into a sink tuple so
//! one pass feeds N simulators.
//!
//! # Encoding
//!
//! Each event costs two fixed header bytes plus only the fields it
//! actually carries:
//!
//! | bytes | content |
//! |---|---|
//! | 1 | instruction class (low nibble) and phase (high nibble) |
//! | 1 | presence/outcome flags (`mem`, write, `ctrl`, taken, `dst`, `src1`, `src2`, sequential-pc) |
//! | 0–10 | pc as a zigzag-varint delta from the previous pc — omitted entirely when `pc == prev_pc + 4` (the common fall-through case) |
//! | 0–11 | memory address as a zigzag-varint delta from the previous *memory* address, plus a raw size byte |
//! | 0–10 | control target as a zigzag-varint delta from this event's pc |
//! | 0–3 | raw register bytes for `dst`/`src1`/`src2` |
//!
//! Because pcs advance mostly by one instruction and data accesses
//! show spatial locality, a typical event costs 2–5 bytes against the
//! 64 bytes of an in-memory [`NativeInst`] — small enough to retain
//! every (workload, mode) tape of a full experiment run in RAM.
//!
//! # Segments
//!
//! The byte stream is chunked into **segments** of [`SEGMENT_EVENTS`]
//! events (the last may be shorter). The recorder restarts the
//! pc/mem-addr delta state at every segment boundary and records a
//! [`Segment`] footer (byte span, event count, last pc/addr, content
//! hash), which makes each segment independently decodable: the
//! on-disk store ([`crate::store`]) streams one buffered segment at a
//! time, [`Tape::replay_range`] replays any contiguous run of
//! segments for sharded simulation, and [`Tape::tiled`] synthesizes
//! arbitrarily long tapes by repeating segments under shifted
//! data-address bases without touching the packed bytes.
//!
//! # Examples
//!
//! ```
//! use jrt_trace::{CountingSink, InstMix, NativeInst, Phase, Tape, TraceSink};
//!
//! let tape = Tape::record(|rec| {
//!     rec.accept(&NativeInst::alu(0x1000, Phase::NativeExec));
//!     rec.accept(&NativeInst::load(0x1004, 0x2000_0000, 4, Phase::NativeExec));
//! });
//! assert_eq!(tape.len(), 2);
//!
//! // One recording, many consumers.
//! let mut counts = CountingSink::new();
//! let mut mix = InstMix::new();
//! tape.replay(&mut counts);
//! tape.replay(&mut mix);
//! assert_eq!(counts.total(), mix.total());
//! ```

use crate::inst::{AccessKind, CtrlInfo, InstClass, MemRef, NativeInst, Phase};
use crate::sink::TraceSink;

// Flag bits of the second header byte.
const F_MEM: u8 = 0x01;
const F_MEM_WRITE: u8 = 0x02;
const F_CTRL: u8 = 0x04;
const F_TAKEN: u8 = 0x08;
const F_DST: u8 = 0x10;
const F_SRC1: u8 = 0x20;
const F_SRC2: u8 = 0x40;
const F_PC_SEQ: u8 = 0x80;

/// Width assumed for the sequential-pc shortcut: the synthetic ISA is
/// a fixed four-byte-instruction RISC, so fall-through is `pc + 4`.
const SEQ_STEP: u64 = 4;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(bytes: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            bytes.push(b);
            return;
        }
        bytes.push(b | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn put_delta(bytes: &mut Vec<u8>, prev: u64, now: u64) {
    put_varint(bytes, zigzag(now.wrapping_sub(prev) as i64));
}

fn get_delta(bytes: &[u8], pos: &mut usize, prev: u64) -> u64 {
    prev.wrapping_add(unzigzag(get_varint(bytes, pos)) as u64)
}

/// Events per segment: small enough that one segment's packed bytes
/// (a few hundred KB to ~2.5 MB) stream through a reusable buffer,
/// large enough that footer and delta-restart overhead stay
/// negligible.
pub const SEGMENT_EVENTS: u64 = 256 * 1024;

/// FNV-1a over `bytes`, finished with the SplitMix64 finalizer —
/// the content hash stored in every [`Segment`] footer and validated
/// by the on-disk store before decoding.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One independently-decodable chunk of a tape: the footer the
/// recorder writes when it closes a segment.
///
/// `base_pc`/`base_addr` are the delta-decoder's starting values
/// (always 0 for a recorded segment; [`Tape::tiled`] shifts
/// `base_addr` to relocate a tile's data working set), and
/// `last_pc`/`last_addr` are the decoder's final values — useful for
/// validation and for resuming a decode mid-tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Offset of the segment's first byte in the tape's byte stream.
    pub byte_off: u64,
    /// Packed length of the segment in bytes.
    pub byte_len: u64,
    /// Events in the segment.
    pub events: u64,
    /// pc the delta decoder starts from (0 when recorded).
    pub base_pc: u64,
    /// Memory address the delta decoder starts from (0 when recorded;
    /// shifted by [`Tape::tiled`]).
    pub base_addr: u64,
    /// pc after the segment's last event.
    pub last_pc: u64,
    /// Memory-address delta state after the segment's last event.
    pub last_addr: u64,
    /// [`content_hash`] of the packed segment bytes.
    pub hash: u64,
}

/// Decodes `events` events from `bytes` (one segment's packed span),
/// feeding each to `sink` without calling `finish`. The delta state
/// starts at `base_pc`/`base_addr` and the final state is returned as
/// `(last_pc, last_addr)`.
pub(crate) fn decode_events(
    bytes: &[u8],
    events: u64,
    base_pc: u64,
    base_addr: u64,
    sink: &mut impl TraceSink,
) -> (u64, u64) {
    let mut pos = 0usize;
    let mut prev_pc = base_pc;
    let mut prev_mem = base_addr;
    for _ in 0..events {
        let head = bytes[pos];
        let flags = bytes[pos + 1];
        pos += 2;

        let class = InstClass::ALL[usize::from(head & 0x0f)];
        let phase = Phase::ALL[usize::from(head >> 4)];

        let pc = if flags & F_PC_SEQ != 0 {
            prev_pc.wrapping_add(SEQ_STEP)
        } else {
            get_delta(bytes, &mut pos, prev_pc)
        };
        prev_pc = pc;

        let mem = if flags & F_MEM != 0 {
            let addr = get_delta(bytes, &mut pos, prev_mem);
            prev_mem = addr;
            let size = bytes[pos];
            pos += 1;
            Some(MemRef {
                addr,
                size,
                kind: if flags & F_MEM_WRITE != 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            })
        } else {
            None
        };

        let ctrl = if flags & F_CTRL != 0 {
            Some(CtrlInfo {
                target: get_delta(bytes, &mut pos, pc),
                taken: flags & F_TAKEN != 0,
            })
        } else {
            None
        };

        let mut read_reg = |on: u8| {
            if flags & on != 0 {
                let r = bytes[pos];
                pos += 1;
                Some(r)
            } else {
                None
            }
        };
        let dst = read_reg(F_DST);
        let src1 = read_reg(F_SRC1);
        let src2 = read_reg(F_SRC2);

        sink.accept(&NativeInst {
            pc,
            class,
            mem,
            ctrl,
            dst,
            src1,
            src2,
            phase,
        });
    }
    (prev_pc, prev_mem)
}

/// A compact, immutable recording of a native-instruction stream.
///
/// Produced by [`Tape::record`] (or [`TapeRecorder::into_tape`]) and
/// consumed any number of times with [`Tape::replay`]. A tape is
/// `Send + Sync`, so one recording can be shared across worker threads
/// behind an `Arc`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tape {
    bytes: Vec<u8>,
    events: u64,
    segments: Vec<Segment>,
}

impl Tape {
    /// Records whatever the closure feeds into the supplied recorder
    /// and returns the finished tape.
    ///
    /// This is the recording entry point: pass the recorder to an
    /// execution engine (it is a [`TraceSink`]) and every emitted
    /// event lands on the tape.
    pub fn record(f: impl FnOnce(&mut TapeRecorder)) -> Tape {
        let mut rec = TapeRecorder::new();
        f(&mut rec);
        rec.into_tape()
    }

    /// Number of recorded events.
    pub fn len(&self) -> u64 {
        self.events
    }

    /// Whether the tape holds no events.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Size of the packed encoding in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The tape's segments, in stream order. Every recorded event
    /// belongs to exactly one segment.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The packed byte stream the segments index into.
    pub fn segment_bytes(&self, seg: &Segment) -> &[u8] {
        &self.bytes[seg.byte_off as usize..(seg.byte_off + seg.byte_len) as usize]
    }

    /// Decodes the tape, feeding every event to `sink` in recorded
    /// order and then calling [`TraceSink::finish`] — exactly the
    /// observable behaviour of the original execution.
    pub fn replay(&self, sink: &mut impl TraceSink) {
        self.replay_range(0..self.segments.len(), sink);
    }

    /// Replays only the segments in `range` (a contiguous shard of the
    /// tape), then calls [`TraceSink::finish`]. Segment boundaries are
    /// exact event boundaries, so `replay_range(0..k)` followed by
    /// `replay_range(k..n)` into the same sink observes the same
    /// stream as a full [`Tape::replay`].
    pub fn replay_range(&self, range: std::ops::Range<usize>, sink: &mut impl TraceSink) {
        for seg in &self.segments[range] {
            decode_events(
                self.segment_bytes(seg),
                seg.events,
                seg.base_pc,
                seg.base_addr,
                sink,
            );
        }
        sink.finish();
    }

    /// Synthesizes a tape `tiles` times as long by repeating this
    /// tape's segments with each repetition's data addresses shifted
    /// by `addr_stride` bytes (tile `k` decodes with
    /// `base_addr + k * addr_stride`): same code stream, `tiles`
    /// disjoint data working sets — the billion-event-class input the
    /// out-of-core store needs without recording one. The packed bytes
    /// are stored once; only the segment index grows.
    ///
    /// Pick `addr_stride` large enough to separate the workloads'
    /// data footprints but small enough that shifted addresses stay
    /// inside their [`Region`](crate::Region)s (the data regions are
    /// 256 MiB wide).
    ///
    /// # Panics
    ///
    /// Panics when `tiles` is zero.
    pub fn tiled(&self, tiles: usize, addr_stride: u64) -> Tape {
        assert!(tiles > 0, "a tiled tape needs at least one tile");
        let mut segments = Vec::with_capacity(self.segments.len() * tiles);
        for k in 0..tiles as u64 {
            let shift = k * addr_stride;
            for seg in &self.segments {
                segments.push(Segment {
                    base_addr: seg.base_addr.wrapping_add(shift),
                    last_addr: seg.last_addr.wrapping_add(shift),
                    ..*seg
                });
            }
        }
        Tape {
            bytes: self.bytes.clone(),
            events: self.events * tiles as u64,
            segments,
        }
    }
}

/// A [`TraceSink`] that packs every observed event onto a [`Tape`].
///
/// Attach it to an execution (optionally alongside other sinks in a
/// sink tuple), then call [`TapeRecorder::into_tape`].
#[derive(Debug, Clone, Default)]
pub struct TapeRecorder {
    tape: Tape,
    prev_pc: u64,
    prev_mem: u64,
    /// Byte offset where the open segment starts.
    seg_start: usize,
    /// Events recorded into the open segment so far.
    seg_events: u64,
}

impl TapeRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes the open segment: writes its footer and restarts the
    /// delta state so the next segment decodes independently.
    fn close_segment(&mut self) {
        let bytes = &self.tape.bytes[self.seg_start..];
        self.tape.segments.push(Segment {
            byte_off: self.seg_start as u64,
            byte_len: bytes.len() as u64,
            events: self.seg_events,
            base_pc: 0,
            base_addr: 0,
            last_pc: self.prev_pc,
            last_addr: self.prev_mem,
            hash: content_hash(bytes),
        });
        self.seg_start = self.tape.bytes.len();
        self.seg_events = 0;
        self.prev_pc = 0;
        self.prev_mem = 0;
    }

    /// Finishes recording and returns the packed tape.
    pub fn into_tape(mut self) -> Tape {
        if self.seg_events > 0 {
            self.close_segment();
        }
        self.tape
    }

    /// Events recorded so far.
    pub fn len(&self) -> u64 {
        self.tape.events
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.tape.events == 0
    }
}

impl TraceSink for TapeRecorder {
    fn accept(&mut self, inst: &NativeInst) {
        if self.seg_events == SEGMENT_EVENTS {
            self.close_segment();
        }
        let bytes = &mut self.tape.bytes;
        let class_idx = inst.class.index() as u8;
        let phase_idx = inst.phase.index() as u8;

        let mut flags = 0u8;
        let pc_seq = inst.pc == self.prev_pc.wrapping_add(SEQ_STEP);
        if pc_seq {
            flags |= F_PC_SEQ;
        }
        if let Some(m) = inst.mem {
            flags |= F_MEM;
            if m.kind == AccessKind::Write {
                flags |= F_MEM_WRITE;
            }
        }
        if let Some(c) = inst.ctrl {
            flags |= F_CTRL;
            if c.taken {
                flags |= F_TAKEN;
            }
        }
        if inst.dst.is_some() {
            flags |= F_DST;
        }
        if inst.src1.is_some() {
            flags |= F_SRC1;
        }
        if inst.src2.is_some() {
            flags |= F_SRC2;
        }

        bytes.push(class_idx | (phase_idx << 4));
        bytes.push(flags);
        if !pc_seq {
            put_delta(bytes, self.prev_pc, inst.pc);
        }
        self.prev_pc = inst.pc;
        if let Some(m) = inst.mem {
            put_delta(bytes, self.prev_mem, m.addr);
            self.prev_mem = m.addr;
            bytes.push(m.size);
        }
        if let Some(c) = inst.ctrl {
            put_delta(bytes, inst.pc, c.target);
        }
        for reg in [inst.dst, inst.src1, inst.src2].into_iter().flatten() {
            bytes.push(reg);
        }
        self.tape.events += 1;
        self.seg_events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountingSink, RecordingSink};

    fn sample_events() -> Vec<NativeInst> {
        vec![
            NativeInst::alu(0x1000, Phase::NativeExec)
                .with_dst(3)
                .with_srcs(1, Some(2)),
            NativeInst::alu(0x1004, Phase::NativeExec),
            NativeInst::load(0x1008, 0x2000_0010, 4, Phase::NativeExec).with_dst(5),
            NativeInst::store(0x100c, 0x2000_0014, 8, Phase::Runtime),
            NativeInst::branch(0x1010, 0x1000, true, Phase::NativeExec),
            NativeInst::branch(0x1000, 0x2000, false, Phase::NativeExec),
            NativeInst::indirect_jump(0x44, 0x9000_0000, Phase::InterpDispatch),
            NativeInst::ret(0xffff_ffff_ffff_fffc, 0x0, Phase::Gc),
            NativeInst::new(0x0, InstClass::Nop, Phase::ClassLoad),
        ]
    }

    #[test]
    fn enum_discriminants_match_all_order() {
        // The encoding records `index()` and decodes `ALL[idx]`, so
        // each must invert the other.
        for (k, c) in InstClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), k, "InstClass::ALL[{k}] is {c:?}");
        }
        for (k, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), k, "Phase::ALL[{k}] is {p:?}");
        }
        assert!(InstClass::ALL.len() <= 16, "class index must fit a nibble");
        assert!(Phase::ALL.len() <= 16, "phase index must fit a nibble");
    }

    #[test]
    fn round_trip_is_exact() {
        let events = sample_events();
        let tape = Tape::record(|rec| {
            for e in &events {
                rec.accept(e);
            }
        });
        assert_eq!(tape.len(), events.len() as u64);

        let mut out = RecordingSink::new();
        tape.replay(&mut out);
        assert_eq!(out.events, events);
    }

    #[test]
    fn replay_calls_finish_once() {
        #[derive(Default)]
        struct FinishCounter(u64);
        impl TraceSink for FinishCounter {
            fn accept(&mut self, _inst: &NativeInst) {}
            fn finish(&mut self) {
                self.0 += 1;
            }
        }
        let tape = Tape::record(|rec| rec.accept(&NativeInst::alu(0, Phase::Runtime)));
        let mut f = FinishCounter::default();
        tape.replay(&mut f);
        assert_eq!(f.0, 1);

        // Even an empty tape finishes its sink.
        let mut f = FinishCounter::default();
        Tape::default().replay(&mut f);
        assert_eq!(f.0, 1);
    }

    #[test]
    fn sequential_pcs_pack_tightly() {
        let tape = Tape::record(|rec| {
            for k in 0..1000u64 {
                rec.accept(&NativeInst::alu(0x1000 + 4 * k, Phase::NativeExec));
            }
        });
        // First event pays a pc varint; the rest are header-only.
        assert!(tape.size_bytes() <= 2 * 1000 + 10, "{}", tape.size_bytes());
        let mut c = CountingSink::new();
        tape.replay(&mut c);
        assert_eq!(c.total(), 1000);
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            64,
            i64::MAX,
            i64::MIN,
            0x7fff_ffff_ffff,
        ] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, zigzag(v));
            let mut pos = 0;
            assert_eq!(unzigzag(get_varint(&bytes, &mut pos)), v);
            assert_eq!(pos, bytes.len());
        }
    }

    #[test]
    fn tape_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tape>();
    }

    /// A small deterministic mixed stream: ALU runs with loads/stores
    /// and a back-branch, long enough to span several segments.
    fn long_stream(n: u64) -> impl Iterator<Item = NativeInst> {
        (0..n).map(|k| {
            let pc = 0x1000 + 4 * (k % 512);
            match k % 7 {
                0 => NativeInst::load(pc, 0x2000_0000 + 8 * (k % 4096), 4, Phase::NativeExec),
                1 => NativeInst::store(pc, 0x2100_0000 + 16 * (k % 1024), 8, Phase::Runtime),
                2 => NativeInst::branch(pc, 0x1000, k % 3 == 0, Phase::NativeExec),
                _ => NativeInst::alu(pc, Phase::NativeExec),
            }
        })
    }

    #[test]
    fn segments_partition_the_tape() {
        let n = 2 * SEGMENT_EVENTS + 123;
        let tape = Tape::record(|rec| {
            for e in long_stream(n) {
                rec.accept(&e);
            }
        });
        let segs = tape.segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].events, SEGMENT_EVENTS);
        assert_eq!(segs[1].events, SEGMENT_EVENTS);
        assert_eq!(segs[2].events, 123);
        assert_eq!(segs.iter().map(|s| s.events).sum::<u64>(), tape.len());

        // Byte spans are contiguous and cover the whole stream.
        let mut off = 0u64;
        for seg in segs {
            assert_eq!(seg.byte_off, off);
            assert_eq!(seg.base_pc, 0);
            assert_eq!(seg.base_addr, 0);
            assert_eq!(content_hash(tape.segment_bytes(seg)), seg.hash);
            off += seg.byte_len;
        }
        assert_eq!(off as usize, tape.size_bytes());

        // Each segment decodes independently and lands exactly on its
        // recorded footer state.
        for seg in segs {
            let mut c = CountingSink::new();
            let (last_pc, last_addr) =
                decode_events(tape.segment_bytes(seg), seg.events, 0, 0, &mut c);
            assert_eq!(c.total(), seg.events);
            assert_eq!(last_pc, seg.last_pc);
            assert_eq!(last_addr, seg.last_addr);
        }
    }

    #[test]
    fn multi_segment_round_trip_is_exact() {
        let n = SEGMENT_EVENTS + 77;
        let events: Vec<NativeInst> = long_stream(n).collect();
        let tape = Tape::record(|rec| {
            for e in &events {
                rec.accept(e);
            }
        });
        let mut out = RecordingSink::new();
        tape.replay(&mut out);
        assert_eq!(out.events.len(), events.len());
        assert_eq!(out.events, events);
    }

    #[test]
    fn replay_range_splices_into_full_replay() {
        let n = 3 * SEGMENT_EVENTS + 5;
        let tape = Tape::record(|rec| {
            for e in long_stream(n) {
                rec.accept(&e);
            }
        });
        let mut full = RecordingSink::new();
        tape.replay(&mut full);

        let mid = tape.segments().len() / 2;
        let mut spliced = RecordingSink::new();
        tape.replay_range(0..mid, &mut spliced);
        tape.replay_range(mid..tape.segments().len(), &mut spliced);
        assert_eq!(spliced.events, full.events);
    }

    #[test]
    fn tiled_repeats_code_and_shifts_data() {
        let tape = Tape::record(|rec| {
            for e in long_stream(1000) {
                rec.accept(&e);
            }
        });
        let stride = 1u64 << 20;
        let tiled = tape.tiled(3, stride);
        assert_eq!(tiled.len(), 3 * tape.len());
        assert_eq!(tiled.size_bytes(), tape.size_bytes());

        let mut base = RecordingSink::new();
        tape.replay(&mut base);
        let mut out = RecordingSink::new();
        tiled.replay(&mut out);
        assert_eq!(out.events.len(), 3 * base.events.len());
        for (k, chunk) in out.events.chunks(base.events.len()).enumerate() {
            let shift = k as u64 * stride;
            for (got, want) in chunk.iter().zip(&base.events) {
                assert_eq!(got.pc, want.pc, "code stream must not shift");
                match (got.mem, want.mem) {
                    (Some(g), Some(w)) => {
                        assert_eq!(g.addr, w.addr + shift);
                        assert_eq!(g.size, w.size);
                        assert_eq!(g.kind, w.kind);
                    }
                    (None, None) => {}
                    _ => panic!("mem presence must match"),
                }
            }
        }
    }

    #[test]
    fn clike_phase_events_round_trip() {
        // NativeApp is the highest phase index — exercises the top nibble.
        let events = vec![
            NativeInst::alu(0x10, Phase::NativeApp),
            NativeInst::load(0x14, 0x3000_0000, 2, Phase::NativeApp),
        ];
        let tape = Tape::record(|rec| {
            for e in &events {
                rec.accept(e);
            }
        });
        let mut out = RecordingSink::new();
        tape.replay(&mut out);
        assert_eq!(out.events, events);
    }
}
