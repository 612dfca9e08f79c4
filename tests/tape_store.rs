//! On-disk tape store properties: persisting a tape as an append-only
//! segment file and streaming it back must reproduce the exact event
//! sequence, and corruption must be *detected* (an error, never a
//! panic or silently wrong events).

use std::path::PathBuf;

use javart::trace::{
    AccessKind, CtrlInfo, DiskTape, InstClass, MemRef, NativeInst, Phase, RecordingSink,
    StoreError, Tape, TraceSink,
};
use javart::workloads::Size;
use jrt_testkit::forall;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jrt-tape-store-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Draws a fully random instruction event — same adversarial
/// distribution as the in-memory round-trip suite.
fn arbitrary_inst(rng: &mut jrt_testkit::Rng) -> NativeInst {
    let mut i = NativeInst::new(
        rng.next_u64(),
        *rng.choose(&InstClass::ALL),
        *rng.choose(&Phase::ALL),
    );
    if rng.bool() {
        i.mem = Some(MemRef {
            addr: rng.next_u64(),
            size: rng.u8(),
            kind: if rng.bool() {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        });
    }
    if rng.bool() {
        i.ctrl = Some(CtrlInfo {
            target: rng.next_u64(),
            taken: rng.bool(),
        });
    }
    if rng.bool() {
        i.dst = Some(rng.u8());
    }
    if rng.bool() {
        i.src1 = Some(rng.u8());
    }
    if rng.bool() {
        i.src2 = Some(rng.u8());
    }
    i
}

/// Arbitrary streams survive record → persist → open → streamed
/// replay byte-for-byte: every event equals its in-memory twin.
#[test]
fn persisted_streams_replay_exactly() {
    let dir = tmp_dir("prop");
    forall!(cases = 48, seed = 0xD15C, |rng| {
        let events = rng.vec(0..500, arbitrary_inst);
        let tape = Tape::record(|rec| {
            for e in &events {
                rec.accept(e);
            }
        });

        let path = dir.join("prop.tape");
        DiskTape::write(&path, &tape).expect("persist");
        let disk = DiskTape::open(&path).expect("reopen");
        assert_eq!(disk.len(), tape.len());
        assert_eq!(disk.segments(), tape.segments());

        let mut mem = RecordingSink::new();
        tape.replay(&mut mem);
        let mut streamed = RecordingSink::new();
        disk.replay(&mut streamed).expect("streamed replay");
        assert_eq!(streamed.events, mem.events);
        assert_eq!(streamed.events, events);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A multi-segment real-workload tape streams back exactly, both in
/// full and per segment range.
#[test]
fn workload_tape_streams_from_disk_exactly() {
    use javart::experiments::runner::{run_mode, Mode};

    let dir = tmp_dir("workload");
    let spec = javart::workloads::suite()
        .into_iter()
        .find(|s| s.name == "db")
        .unwrap();
    let program = (spec.build)(Size::Tiny);
    let tape = Tape::record(|rec| {
        run_mode(&program, Mode::Jit, rec);
    });
    // Tile it so the persisted tape has several segments to range over.
    let tiled = tape.tiled(3, 1 << 20);
    let path = dir.join("db.tape");
    let disk = DiskTape::write(&path, &tiled).expect("persist");
    assert!(disk.segments().len() >= 3);

    let mut mem = RecordingSink::new();
    tiled.replay(&mut mem);
    let mut streamed = RecordingSink::new();
    disk.replay(&mut streamed).expect("streamed replay");
    assert_eq!(streamed.events, mem.events);

    // Per-range replays concatenate to the full stream.
    let mut spliced = RecordingSink::new();
    let nsegs = disk.segments().len();
    for k in 0..nsegs {
        disk.replay_range(k..k + 1, &mut spliced).expect("range");
    }
    assert_eq!(spliced.events, mem.events);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flipping one payload byte is detected by the per-segment content
/// hash: replay returns `StoreError::Corrupt`, it does not panic and
/// does not emit a wrong stream.
#[test]
fn corrupted_segment_is_detected_not_replayed() {
    let dir = tmp_dir("corrupt");
    let tape = Tape::record(|rec| {
        for k in 0u64..5000 {
            rec.accept(&NativeInst::load(
                0x1000 + 4 * k,
                0x2000_0000 + 8 * (k % 512),
                4,
                Phase::NativeExec,
            ));
        }
    });
    let path = dir.join("c.tape");
    let disk = DiskTape::write(&path, &tape).expect("persist");

    let mut bytes = std::fs::read(&path).unwrap();
    let mid = 8 + (bytes.len() - 8) / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let mut sink = RecordingSink::new();
    match disk.replay(&mut sink) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("hash"), "message: {msg}"),
        other => panic!("corruption not detected: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated index file is rejected at `open` time with an error.
#[test]
fn truncated_index_is_rejected() {
    let dir = tmp_dir("trunc");
    let tape = Tape::record(|rec| {
        for k in 0u64..500 {
            rec.accept(&NativeInst::alu(0x1000 + 4 * k, Phase::NativeExec));
        }
    });
    let path = dir.join("t.tape");
    DiskTape::write(&path, &tape).expect("persist");

    let idx = path.with_file_name("t.tape.idx");
    let bytes = std::fs::read(&idx).unwrap();
    std::fs::write(&idx, &bytes[..bytes.len() - 9]).unwrap();
    assert!(DiskTape::open(&path).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds an index file body with a valid checksum: magic, `events`,
/// `nsegs`, the given 64-byte segment footers, then the checksum —
/// what any writer could craft.
fn crafted_index(events: u64, nsegs: u64, segs: &[[u64; 8]]) -> Vec<u8> {
    let mut idx = javart::trace::store::INDEX_MAGIC.to_vec();
    for v in [events, nsegs].iter().chain(segs.iter().flatten()) {
        idx.extend_from_slice(&v.to_le_bytes());
    }
    let sum = javart::trace::content_hash(&idx);
    idx.extend_from_slice(&sum.to_le_bytes());
    idx
}

/// Indexes whose counts or spans wrap `u64` arithmetic are rejected
/// with an error — never a panic, an unbounded allocation, or a tape
/// that opens with the wrong shape.
#[test]
fn wrapping_index_fields_are_rejected() {
    let dir = tmp_dir("wrap");
    let path = dir.join("w.tape");
    let idx = path.with_file_name("w.tape.idx");
    std::fs::write(
        &path,
        [&javart::trace::store::DATA_MAGIC[..], &[0; 64]].concat(),
    )
    .unwrap();
    // 2^58 + 1 segments: `24 + nsegs * 64` wraps to the real body
    // length of this 96-byte index.
    let wrapped_count = crafted_index(0, (1 << 58) + 1, &[[0; 8]]);
    assert_eq!(wrapped_count.len(), 96);
    let cases: [(&str, Vec<u8>); 3] = [
        ("segment count", wrapped_count),
        // Per-segment event counts that sum past u64::MAX to the total.
        (
            "event total",
            crafted_index(
                1,
                2,
                &[[0, 0, u64::MAX, 0, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0, 0, 0]],
            ),
        ),
        // A segment whose end offset wraps to within the data file.
        (
            "segment span",
            crafted_index(0, 1, &[[u64::MAX, 2, 0, 0, 0, 0, 0, 0]]),
        ),
    ];
    for (what, bytes) in cases {
        std::fs::write(&idx, &bytes).unwrap();
        match DiskTape::open(&path) {
            Err(StoreError::Corrupt(_)) => {}
            other => panic!("wrapped {what} not rejected: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
