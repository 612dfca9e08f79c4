//! Out-of-core tape persistence: append-only segment files.
//!
//! A trace bigger than one address space has to live on disk: the
//! scale study tiles a recorded tape into an s10-class one and
//! replays it from there, sharded. A [`DiskTape`] is a [`Tape`]
//! spilled to one data file — magic `JRTTAPE1`, then each segment's
//! packed bytes appended in stream order (the same delta encoding
//! [`Tape`] holds in RAM, unchanged) — and the segment index that
//! [`DiskTape::write`] returns, which stays in RAM: nothing reads a
//! tape file back but the [`DiskTape`] that wrote it.
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

/// What went wrong reading or writing a [`DiskTape`].
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A segment read back failed its content-hash check.
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

/// A tape persisted as an append-only segment file, with its segment
/// index in RAM.
///
/// Segment bytes are read and content-hash-validated lazily, one
/// buffered segment at a time, during replay.
#[derive(Debug, Clone)]
pub struct DiskTape {
    path: PathBuf,
    events: u64,
    segments: Vec<Segment>,
}

impl DiskTape {
    /// Writes `tape` to the data file `path`.
    pub fn write(path: &Path, tape: &Tape) -> Result<DiskTape, StoreError> {
        // Magic + segment byte runs in stream order. Offsets are
        // re-laid-out sequentially (a tiled tape shares byte spans
        // across tiles in RAM; on disk each tile gets its own run so
        // replay is one forward pass).
        let mut segments = Vec::with_capacity(tape.segments().len());
        let mut f = std::io::BufWriter::new(File::create(path)?);
        f.write_all(DATA_MAGIC)?;
        let mut off = 0u64;
        for seg in tape.segments() {
            f.write_all(tape.segment_bytes(seg))?;
            segments.push(Segment {
                byte_off: off,
                ..*seg
            });
            off += seg.byte_len;
        }
        f.flush()?;
        Ok(DiskTape {
            path: path.to_path_buf(),
            events: tape.len(),
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

    /// Packed size of the segment payload in bytes (excluding the
    /// magic).
    pub fn size_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.byte_len).sum()
    }

    /// Path of the data file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Deletes the data file.
    pub fn remove(self) -> Result<(), StoreError> {
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
    fn write_replay_round_trips() {
        let tape = sample_tape();
        let (_dir, path) = tmp_path("roundtrip.tape");
        let written = DiskTape::write(&path, &tape).unwrap();
        assert_eq!(written.len(), tape.len());
        assert_eq!(written.segments(), tape.segments());

        let mut want = RecordingSink::new();
        tape.replay(&mut want);
        let mut got = RecordingSink::new();
        written.replay(&mut got).unwrap();
        assert_eq!(got.events, want.events);
    }

    #[test]
    fn corrupt_segment_is_detected_not_decoded() {
        let tape = sample_tape();
        let (_dir, path) = tmp_path("corrupt.tape");
        let written = DiskTape::write(&path, &tape).unwrap();

        // Flip one payload byte in the second segment.
        let mut data = std::fs::read(&path).unwrap();
        let off = 8 + tape.segments()[1].byte_off as usize + 17;
        data[off] ^= 0xff;
        std::fs::write(&path, &data).unwrap();

        let mut c = CountingSink::new();
        match written.replay(&mut c) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("segment 1"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The undamaged first segment still replays alone.
        let mut c = CountingSink::new();
        written.replay_range(0..1, &mut c).unwrap();
        assert_eq!(c.total(), tape.segments()[0].events);
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
        disk.replay(&mut got).unwrap();
        assert_eq!(got.events, want.events);
    }
}
