//! On-disk tape store properties: persisting a tape as an append-only
//! segment file and streaming it back through the `DiskTape` that
//! wrote it must reproduce the exact event sequence, and corruption
//! must be *detected* (an error, never a panic or silently wrong
//! events).

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

/// Arbitrary streams survive record → persist → streamed replay
/// byte-for-byte: every event equals its in-memory twin.
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
        let disk = DiskTape::write(&path, &tape).expect("persist");
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
    use javart::experiments::{tape, Mode};

    let dir = tmp_dir("workload");
    let spec = javart::workloads::suite()
        .into_iter()
        .find(|s| s.name == "db")
        .unwrap();
    let w = tape::workload(&spec, Size::Tiny);
    let tape = Tape::record(|rec| {
        tape::run(&w, tape::config(&w, Mode::Jit), rec);
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
