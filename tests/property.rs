//! Property-based tests over the core invariants.

use javart::bytecode::{ClassAsm, MethodAsm, Program, RetKind};
use javart::cache::{Cache, CacheConfig};
use javart::sync::{EnterOutcome, FatLockEngine, OneBitLockEngine, SyncEngine, ThinLockEngine};
use javart::trace::{AccessKind, CountingSink, Phase};
use javart::vm::{Vm, VmConfig};
use jrt_testkit::forall;

/// A random arithmetic op on two stack values.
#[derive(Debug, Clone, Copy)]
enum BinOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

const ALL_BINOPS: [BinOp; 8] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
];

impl BinOp {
    fn apply(self, a: i32, b: i32) -> i32 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 31),
            BinOp::Shr => a.wrapping_shr(b as u32 & 31),
        }
    }

    fn emit(self, m: &mut MethodAsm) {
        match self {
            BinOp::Add => m.iadd(),
            BinOp::Sub => m.isub(),
            BinOp::Mul => m.imul(),
            BinOp::And => m.iand(),
            BinOp::Or => m.ior(),
            BinOp::Xor => m.ixor(),
            BinOp::Shl => m.ishl(),
            BinOp::Shr => m.ishr(),
        };
    }
}

/// Random expression chains evaluate identically on the host, the
/// interpreter, and the JIT.
#[test]
fn random_arithmetic_agrees_across_engines() {
    forall!(cases = 48, seed = 0xA1173, |rng| {
        let seed = rng.i32();
        let ops = rng.vec(1..40, |r| (*r.choose(&ALL_BINOPS), r.i32()));

        // Host evaluation.
        let mut host = seed;
        for (op, v) in &ops {
            host = op.apply(host, *v);
        }

        // Bytecode program.
        let mut c = ClassAsm::new("Main");
        let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
        m.iconst(seed);
        for (op, v) in &ops {
            m.iconst(*v);
            op.emit(&mut m);
        }
        m.ireturn();
        c.add_method(m);
        let p = Program::build(vec![c], "Main", "main").expect("assembles");

        for cfg in [VmConfig::interpreter(), VmConfig::jit()] {
            let r = Vm::new(&p, cfg)
                .run(&mut CountingSink::new())
                .expect("runs");
            assert_eq!(r.exit_value, Some(host));
        }
    });
}

/// The cache simulator agrees with a naive reference model
/// (fully-explicit LRU list) on an arbitrary access sequence. About
/// half the accesses reuse the previous access's line, as a read or a
/// write: the simulator answers those without a probe. A quarter go
/// back to the line before that, which the same-line hit must not
/// mistake for the last one.
#[test]
fn cache_matches_reference_model() {
    forall!(cases = 64, seed = 0xCAC4E, |rng| {
        let (mut before, mut last) = (0u64, 0u64);
        let accesses = rng.vec(1..300, |r| {
            let line = match r.u64_in(0..4) {
                0 | 1 => last / 32,
                2 => before / 32,
                _ => r.u64_in(0..128),
            };
            (before, last) = (last, line * 32 + r.u64_in(0..32));
            (last, r.bool())
        });

        let cfg = CacheConfig::new(512, 32, 2); // 16 lines, 8 sets
        let mut cache = Cache::new(cfg);

        // Reference: per-set vector ordered most-recent-first.
        let sets = cfg.num_sets();
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
        let mut model_misses = 0u64;
        let mut seen = std::collections::HashSet::new();

        for (addr, write) in &accesses {
            let kind = if *write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let out = cache.access(*addr, kind, Phase::Runtime);

            let line = addr / 32;
            let set = &mut model[(line % sets) as usize];
            match set.iter().position(|&l| l == line) {
                Some(i) => {
                    let l = set.remove(i);
                    set.insert(0, l);
                    assert!(out.hit, "model hit, cache missed at {addr:#x}");
                }
                None => {
                    model_misses += 1;
                    assert!(!out.hit, "model miss, cache hit at {addr:#x}");
                    assert_eq!(out.compulsory, seen.insert(line), "{addr:#x}");
                    set.insert(0, line);
                    if set.len() > cfg.assoc as usize {
                        set.pop();
                    }
                }
            }
        }
        assert_eq!(cache.stats().misses(), model_misses);
    });
}

/// All three lock engines agree on the *semantics* of an arbitrary
/// enter/exit sequence (who may proceed, recursion accounting),
/// differing only in cost.
#[test]
fn lock_engines_agree_semantically() {
    forall!(cases = 64, seed = 0x10C5, |rng| {
        let script = rng.vec(1..120, |r| {
            (r.u64_in(0..4) as u32, r.u64_in(0..3) as u16, r.bool())
        });

        let mut fat = FatLockEngine::new();
        let mut thin = ThinLockEngine::new();
        let mut onebit = OneBitLockEngine::new();

        // Host model of monitor state.
        let mut owner: std::collections::HashMap<u32, (u16, u32)> = Default::default();

        for (obj, thread, is_enter) in script {
            if is_enter {
                let expect_acquire = match owner.get(&obj) {
                    None => true,
                    Some((o, _)) => *o == thread,
                };
                let outcomes = [
                    fat.monitor_enter(obj, thread),
                    thin.monitor_enter(obj, thread),
                    onebit.monitor_enter(obj, thread),
                ];
                for out in outcomes {
                    match out {
                        EnterOutcome::Acquired { .. } => assert!(expect_acquire),
                        EnterOutcome::Blocked { .. } => assert!(!expect_acquire),
                    }
                }
                if expect_acquire {
                    let e = owner.entry(obj).or_insert((thread, 0));
                    e.1 += 1;
                }
            } else {
                let expect_ok = matches!(owner.get(&obj), Some((o, _)) if *o == thread);
                let results = [
                    fat.monitor_exit(obj, thread).is_ok(),
                    thin.monitor_exit(obj, thread).is_ok(),
                    onebit.monitor_exit(obj, thread).is_ok(),
                ];
                for ok in results {
                    assert_eq!(ok, expect_ok);
                }
                if expect_ok {
                    let e = owner.get_mut(&obj).expect("owned");
                    e.1 -= 1;
                    if e.1 == 0 {
                        owner.remove(&obj);
                    }
                }
            }
        }
    });
}

/// The assembler + verifier accept arbitrary loop bounds and the
/// result matches a host-computed sum.
#[test]
fn loops_compute_correct_sums() {
    forall!(cases = 48, seed = 0x1005, |rng| {
        let bound = rng.i32_in(0..500);
        let mut c = ClassAsm::new("Main");
        let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(0).istore(0).iconst(0).istore(1);
        m.bind(top);
        m.iload(1).iconst(bound).if_icmp_ge(done);
        m.iload(0).iload(1).iadd().istore(0);
        m.iinc(1, 1).goto(top);
        m.bind(done);
        m.iload(0).ireturn();
        c.add_method(m);
        let p = Program::build(vec![c], "Main", "main").expect("assembles");
        let host: i32 = (0..bound).sum();
        let r = Vm::new(&p, VmConfig::jit())
            .run(&mut CountingSink::new())
            .expect("runs");
        assert_eq!(r.exit_value, Some(host));
    });
}
