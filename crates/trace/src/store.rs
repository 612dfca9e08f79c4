//! Out-of-core tape persistence: append-only segment files.
//!
//! A trace bigger than one address space has to live on disk: the
//! scale study tiles a recorded tape into an s10-class one and
//! replays it from there, sharded. A [`DiskTape`] is a [`Tape`]
//! spilled to two files:
//!
//! * **data file** — magic `JRTTAPE1`, then each segment's packed
//!   bytes appended in stream order (the same delta encoding
//!   [`Tape`] holds in RAM, unchanged);
//! * **index file** (`<data>.idx`) — magic `JRTIDX01`, total event
//!   count, segment count, one fixed-width footer per segment
//!   ([`Segment`]'s eight `u64` fields, little-endian), and a trailing
//!   checksum over the index bytes.
//!
//! Because the recorder restarts its delta state at every segment
//! boundary, each segment decodes independently: replay streams one
//! buffered segment at a time through a reused buffer — RAM cost is
//! one segment (a few hundred KB), not one tape. Every segment's
//! [`content_hash`] is validated before decoding, so bit rot surfaces
//! as a [`StoreError::Corrupt`] instead of garbage simulation results.
//!
//! # Examples
//!
//! ```no_run
//! use jrt_trace::{CountingSink, DiskTape, NativeInst, Phase, Tape, TraceSink};
//!
//! let tape = Tape::record(|rec| {
//!     rec.accept(&NativeInst::alu(0x1000, Phase::NativeExec));
//! });
//! let disk = DiskTape::write("/tmp/demo.tape".as_ref(), &tape).unwrap();
//! let mut c = CountingSink::new();
//! disk.replay(&mut c).unwrap();
//! assert_eq!(c.total(), tape.len());
//! ```

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::sink::TraceSink;
use crate::tape::{content_hash, decode_events, Segment, Tape};

/// Magic prefix of the data file.
pub const DATA_MAGIC: &[u8; 8] = b"JRTTAPE1";
/// Magic prefix of the index file.
pub const INDEX_MAGIC: &[u8; 8] = b"JRTIDX01";

/// What went wrong reading or writing a [`DiskTape`].
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file contents failed validation (bad magic, checksum or
    /// content-hash mismatch, truncated data).
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "tape store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "tape store corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

fn index_path(data: &Path) -> PathBuf {
    let mut name = data.file_name().unwrap_or_default().to_os_string();
    name.push(".idx");
    data.with_file_name(name)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let end = *pos + 8;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| StoreError::Corrupt("index truncated".into()))?;
    *pos = end;
    Ok(u64::from_le_bytes(slice.try_into().unwrap()))
}

/// A tape persisted as an append-only segment file plus index.
///
/// Opening validates the index (magic + checksum) eagerly; segment
/// bytes are read and content-hash-validated lazily, one buffered
/// segment at a time, during replay.
#[derive(Debug, Clone)]
pub struct DiskTape {
    path: PathBuf,
    events: u64,
    segments: Vec<Segment>,
}

impl DiskTape {
    /// Writes `tape` to `path` (data) and `<path>.idx` (index),
    /// atomically: both files are built under temporary names and
    /// renamed into place, data before index, so a reader never sees
    /// an index describing missing data.
    pub fn write(path: &Path, tape: &Tape) -> Result<DiskTape, StoreError> {
        let idx_path = index_path(path);
        let tmp_data = path.with_extension("tape.tmp");
        let tmp_idx = idx_path.with_extension("idx.tmp");

        // Data: magic + segment byte runs in stream order. Offsets are
        // re-laid-out sequentially (a tiled tape shares byte spans
        // across tiles in RAM; on disk each tile gets its own run so
        // replay is one forward pass).
        let mut segments = Vec::with_capacity(tape.segments().len());
        {
            let mut f = std::io::BufWriter::new(File::create(&tmp_data)?);
            f.write_all(DATA_MAGIC)?;
            let mut off = 0u64;
            for seg in tape.segments() {
                let bytes = tape.segment_bytes(seg);
                f.write_all(bytes)?;
                segments.push(Segment {
                    byte_off: off,
                    ..*seg
                });
                off += seg.byte_len;
            }
            f.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        }

        // Index: magic, events, nsegs, footers, checksum.
        let mut idx = Vec::with_capacity(24 + tape.segments().len() * 64);
        idx.extend_from_slice(INDEX_MAGIC);
        put_u64(&mut idx, tape.len());
        put_u64(&mut idx, segments.len() as u64);
        for seg in &segments {
            put_u64(&mut idx, seg.byte_off);
            put_u64(&mut idx, seg.byte_len);
            put_u64(&mut idx, seg.events);
            put_u64(&mut idx, seg.base_pc);
            put_u64(&mut idx, seg.base_addr);
            put_u64(&mut idx, seg.last_pc);
            put_u64(&mut idx, seg.last_addr);
            put_u64(&mut idx, seg.hash);
        }
        let sum = content_hash(&idx);
        put_u64(&mut idx, sum);
        {
            let mut f = File::create(&tmp_idx)?;
            f.write_all(&idx)?;
            f.sync_all()?;
        }

        std::fs::rename(&tmp_data, path)?;
        std::fs::rename(&tmp_idx, &idx_path)?;
        Ok(DiskTape {
            path: path.to_path_buf(),
            events: tape.len(),
            segments,
        })
    }

    /// Opens a previously written tape, validating the index magic and
    /// checksum and that the data file is long enough for every
    /// indexed segment.
    pub fn open(path: &Path) -> Result<DiskTape, StoreError> {
        let idx = std::fs::read(index_path(path))?;
        if idx.len() < 32 || &idx[..8] != INDEX_MAGIC {
            return Err(StoreError::Corrupt("bad index magic".into()));
        }
        let body = &idx[..idx.len() - 8];
        let stored_sum = u64::from_le_bytes(idx[idx.len() - 8..].try_into().unwrap());
        if content_hash(body) != stored_sum {
            return Err(StoreError::Corrupt("index checksum mismatch".into()));
        }
        let mut pos = 8usize;
        let events = get_u64(body, &mut pos)?;
        let nsegs = get_u64(body, &mut pos)?;
        // Checked: a crafted count must not wrap into a plausible
        // length. Once it matches, `nsegs` is bounded by the file size.
        if nsegs.checked_mul(64).and_then(|n| n.checked_add(24)) != Some(body.len() as u64) {
            return Err(StoreError::Corrupt("index truncated".into()));
        }
        let overflow = || StoreError::Corrupt("index field overflows".into());
        let mut segments = Vec::with_capacity(nsegs as usize);
        let mut seg_events = 0u64;
        let mut data_end = 0u64;
        for _ in 0..nsegs {
            let seg = Segment {
                byte_off: get_u64(body, &mut pos)?,
                byte_len: get_u64(body, &mut pos)?,
                events: get_u64(body, &mut pos)?,
                base_pc: get_u64(body, &mut pos)?,
                base_addr: get_u64(body, &mut pos)?,
                last_pc: get_u64(body, &mut pos)?,
                last_addr: get_u64(body, &mut pos)?,
                hash: get_u64(body, &mut pos)?,
            };
            seg_events = seg_events.checked_add(seg.events).ok_or_else(overflow)?;
            let seg_end = seg
                .byte_off
                .checked_add(seg.byte_len)
                .ok_or_else(overflow)?;
            data_end = data_end.max(seg_end);
            segments.push(seg);
        }
        if seg_events != events {
            return Err(StoreError::Corrupt(
                "segment event counts disagree with index total".into(),
            ));
        }
        let need = data_end.checked_add(8).ok_or_else(overflow)?;
        let data_len = std::fs::metadata(path)?.len();
        if data_len < need {
            return Err(StoreError::Corrupt(format!(
                "data file truncated: {data_len} bytes, index spans {need}"
            )));
        }
        Ok(DiskTape {
            path: path.to_path_buf(),
            events,
            segments,
        })
    }

    /// Total recorded events.
    pub fn len(&self) -> u64 {
        self.events
    }

    /// Whether the tape holds no events.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// The tape's segment index, in stream order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Packed size of the segment payload in bytes (excluding magic
    /// and index).
    pub fn size_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.byte_len).sum()
    }

    /// Path of the data file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Deletes the data and index files.
    pub fn remove(self) -> Result<(), StoreError> {
        std::fs::remove_file(index_path(&self.path))?;
        std::fs::remove_file(&self.path)?;
        Ok(())
    }

    /// Replays every event into `sink` (then calls
    /// [`TraceSink::finish`]), streaming one content-hash-validated
    /// segment at a time through a reused buffer.
    pub fn replay(&self, sink: &mut impl TraceSink) -> Result<(), StoreError> {
        self.replay_range(0..self.segments.len(), sink)
    }

    /// Replays only the segments in `range` (a contiguous shard), then
    /// calls [`TraceSink::finish`]. On a hash mismatch the sink is
    /// abandoned mid-stream and [`StoreError::Corrupt`] returned.
    pub fn replay_range(
        &self,
        range: std::ops::Range<usize>,
        sink: &mut impl TraceSink,
    ) -> Result<(), StoreError> {
        let mut reader = BufReader::new(File::open(&self.path)?);
        let mut buf = Vec::new();
        for (k, seg) in self.segments[range.clone()].iter().enumerate() {
            self.read_segment(&mut reader, seg, range.start + k, &mut buf)?;
            decode_events(&buf, seg.events, seg.base_pc, seg.base_addr, sink);
        }
        sink.finish();
        Ok(())
    }

    fn read_segment(
        &self,
        reader: &mut BufReader<File>,
        seg: &Segment,
        index: usize,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        reader.seek(SeekFrom::Start(8 + seg.byte_off))?;
        buf.resize(seg.byte_len as usize, 0);
        reader.read_exact(buf)?;
        if content_hash(buf) != seg.hash {
            return Err(StoreError::Corrupt(format!(
                "segment {index} content hash mismatch in {}",
                self.path.display()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{NativeInst, Phase};
    use crate::sink::{CountingSink, RecordingSink};

    /// Removes its directory, with everything in it, when dropped.
    struct TmpDir(PathBuf);

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A path named `name` in a directory of its own under the temp
    /// dir, and the guard that removes that directory.
    fn tmp_path(name: &str) -> (TmpDir, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("jrt-store-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        (TmpDir(dir), path)
    }

    fn sample_tape() -> Tape {
        Tape::record(|rec| {
            for k in 0..crate::tape::SEGMENT_EVENTS + 99 {
                let pc = 0x1000 + 4 * (k % 256);
                if k % 5 == 0 {
                    rec.accept(&NativeInst::load(
                        pc,
                        0x2000_0000 + 8 * (k % 2048),
                        4,
                        Phase::NativeExec,
                    ));
                } else {
                    rec.accept(&NativeInst::alu(pc, Phase::NativeExec));
                }
            }
        })
    }

    #[test]
    fn write_open_replay_round_trips() {
        let tape = sample_tape();
        let (_dir, path) = tmp_path("roundtrip.tape");
        let written = DiskTape::write(&path, &tape).unwrap();
        assert_eq!(written.len(), tape.len());

        let opened = DiskTape::open(&path).unwrap();
        assert_eq!(opened.len(), tape.len());
        assert_eq!(opened.segments(), tape.segments());

        let mut want = RecordingSink::new();
        tape.replay(&mut want);
        let mut got = RecordingSink::new();
        opened.replay(&mut got).unwrap();
        assert_eq!(got.events, want.events);
    }

    #[test]
    fn corrupt_segment_is_detected_not_decoded() {
        let tape = sample_tape();
        let (_dir, path) = tmp_path("corrupt.tape");
        DiskTape::write(&path, &tape).unwrap();

        // Flip one payload byte in the second segment.
        let mut data = std::fs::read(&path).unwrap();
        let off = 8 + tape.segments()[1].byte_off as usize + 17;
        data[off] ^= 0xff;
        std::fs::write(&path, &data).unwrap();

        let opened = DiskTape::open(&path).unwrap();
        let mut c = CountingSink::new();
        match opened.replay(&mut c) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("segment 1"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The undamaged first segment still replays alone.
        let mut c = CountingSink::new();
        opened.replay_range(0..1, &mut c).unwrap();
        assert_eq!(c.total(), tape.segments()[0].events);
    }

    #[test]
    fn truncated_index_is_rejected() {
        let tape = sample_tape();
        let (_dir, path) = tmp_path("truncidx.tape");
        DiskTape::write(&path, &tape).unwrap();
        let idx_path = index_path(&path);
        let idx = std::fs::read(&idx_path).unwrap();
        std::fs::write(&idx_path, &idx[..idx.len() - 20]).unwrap();
        assert!(matches!(DiskTape::open(&path), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn truncated_data_is_rejected_at_open() {
        let tape = sample_tape();
        let (_dir, path) = tmp_path("truncdata.tape");
        DiskTape::write(&path, &tape).unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() / 2]).unwrap();
        assert!(matches!(DiskTape::open(&path), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn missing_files_surface_as_io() {
        let (_dir, path) = tmp_path("missing.tape");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
        assert!(matches!(DiskTape::open(&path), Err(StoreError::Io(_))));
    }

    #[test]
    fn tiled_tape_persists_with_shifted_bases() {
        let base = Tape::record(|rec| {
            for k in 0..500u64 {
                rec.accept(&NativeInst::load(
                    0x1000 + 4 * k,
                    0x2000_0000 + 8 * k,
                    4,
                    Phase::NativeExec,
                ));
            }
        });
        let tiled = base.tiled(3, 1 << 20);
        let (_dir, path) = tmp_path("tiled.tape");
        let disk = DiskTape::write(&path, &tiled).unwrap();
        // Tiling shares bytes in RAM but the disk layout is one run
        // per tile.
        assert_eq!(disk.size_bytes(), 3 * base.size_bytes() as u64);

        let mut want = RecordingSink::new();
        tiled.replay(&mut want);
        let mut got = RecordingSink::new();
        DiskTape::open(&path).unwrap().replay(&mut got).unwrap();
        assert_eq!(got.events, want.events);
    }
}
