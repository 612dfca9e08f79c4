//! `multi` — a four-context harness for the shared-code-cache study.
//!
//! Four classes `Ctx0`..`Ctx3` are assembled by one helper so their
//! method bodies are *byte-identical* (constant pools are per-class,
//! so the class-local indices line up). Each context runs on its own
//! green thread and folds a per-context accumulator; the contexts
//! differ only through the `id` instance field set by `main`.
//!
//! Under [`CacheScope::PerThread`] every thread translates its own
//! copy of `run`/`step`/`mix`; under [`CacheScope::Shared`] the
//! content-addressed cache installs each body once and the other
//! three contexts reuse it — the ShareJIT-style dedup the
//! code-cache study's sharing table (`run_all --filter codecache`)
//! measures.
//!
//! [`CacheScope::PerThread`]: https://docs.rs/jrt-codecache
//! [`CacheScope::Shared`]: https://docs.rs/jrt-codecache

use crate::common::{host_lib_checksum, library, sys_class, HostRng, Size};
use jrt_bytecode::{ClassAsm, MethodAsm, Program, RetKind};

/// Number of identical execution contexts (and worker threads).
pub const CONTEXTS: i32 = 4;

fn rows(size: Size) -> i32 {
    size.scale(256)
}

/// Builds one context class. Every call site inside the body names
/// `name` (the own class), so the constant-pool layout — and therefore
/// the encoded bytecode — is identical across `Ctx0`..`Ctx3`.
fn ctx_class(name: &str, size: Size) -> ClassAsm {
    let mut c = ClassAsm::new(name);
    c.add_static_field("acc");
    c.add_field("id");

    // mix(x): a cheap integer hash (multiply/shift/xor chain).
    {
        let mut m = MethodAsm::new("mix", 1).returns(RetKind::Int);
        let (x, h) = (0u8, 1u8);
        m.iload(x).iconst(-1640531527).imul().istore(h);
        m.iload(h).iload(h).iconst(13).iushr().ixor().istore(h);
        m.iload(h)
            .iconst(5)
            .imul()
            .iconst(0x7F4A7C15)
            .iadd()
            .istore(h);
        m.iload(h).ireturn();
        c.add_method(m);
    }

    // step(s, v): fold one value into the running accumulator.
    {
        let mut m = MethodAsm::new("step", 2).returns(RetKind::Int);
        let (s, v) = (0u8, 1u8);
        m.iload(s).iconst(31).imul();
        m.iload(v)
            .invokestatic(name, "mix", 1, RetKind::Int)
            .iconst(0xFFFF)
            .iand();
        m.ixor().ireturn();
        c.add_method(m);
    }

    // run(): fold ROWS values derived from the context id, then
    // publish the result to the per-context static.
    {
        let mut m = MethodAsm::new_instance("run", 0);
        let (id, i, a) = (1u8, 2u8, 3u8);
        let top = m.new_label();
        let done = m.new_label();
        m.aload(0).getfield(name, "id").istore(id);
        m.iconst(0).istore(i);
        m.iconst(0).istore(a);
        m.bind(top);
        m.iload(i).iconst(rows(size)).if_icmp_ge(done);
        m.iload(a);
        m.iload(i).iload(id).iconst(1000).imul().iadd();
        m.invokestatic(name, "step", 2, RetKind::Int).istore(a);
        m.iinc(i, 1).goto(top);
        m.bind(done);
        m.iload(a).putstatic(name, "acc");
        m.ret();
        c.add_method(m);
    }

    c
}

/// Builds the program.
pub fn program(size: Size) -> Program {
    let names = ["Ctx0", "Ctx1", "Ctx2", "Ctx3"];
    let mut classes: Vec<ClassAsm> = names.iter().map(|n| ctx_class(n, size)).collect();

    let mut main = ClassAsm::new("Main");
    {
        let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
        // locals: 0..3 = objects, 4..7 = thread ids, 8 = sum, 9 = lib
        let (s, lib) = (8u8, 9u8);
        m.invokestatic("LibInit", "boot", 0, RetKind::Int)
            .istore(lib);
        for (k, name) in names.iter().enumerate() {
            let obj = k as u8;
            m.new_obj(name).astore(obj);
            m.aload(obj).iconst(k as i32).putfield(name, "id");
        }
        for k in 0..names.len() as u8 {
            m.aload(k)
                .invokestatic("Sys", "spawn", 1, RetKind::Int)
                .istore(4 + k);
        }
        for k in 0..names.len() as u8 {
            m.iload(4 + k).invokestatic("Sys", "join", 1, RetKind::Void);
        }
        m.iconst(0).istore(s);
        for name in &names {
            m.iload(s).iconst(33).imul();
            m.getstatic(name, "acc").ixor();
            m.istore(s);
        }
        m.iload(s).iload(lib).ixor().ireturn();
        main.add_method(m);
    }

    classes.push(main);
    classes.push(sys_class());
    classes.extend(library(size));
    Program::build(classes, "Main", "main").expect("multi assembles")
}

/// Host-side reference implementation.
pub fn expected(size: Size) -> i32 {
    let mix = |x: i32| -> i32 {
        let mut h = x.wrapping_mul(-1640531527);
        h ^= ((h as u32) >> 13) as i32;
        h = h.wrapping_mul(5).wrapping_add(0x7F4A7C15);
        h
    };
    let step = |s: i32, v: i32| -> i32 { s.wrapping_mul(31) ^ (mix(v) & 0xFFFF) };

    let mut sum = 0i32;
    for id in 0..CONTEXTS {
        let mut acc = 0i32;
        for i in 0..rows(size) {
            acc = step(acc, i.wrapping_add(id.wrapping_mul(1000)));
        }
        sum = sum.wrapping_mul(33) ^ acc;
    }
    // HostRng is unused here but kept in scope parity with the other
    // workloads' expected() mirrors.
    let _ = HostRng::new(0);
    sum ^ host_lib_checksum(size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_trace::CountingSink;
    use jrt_vm::{CacheScope, CodeCacheConfig, Vm, VmConfig};

    #[test]
    fn matches_reference_in_both_modes() {
        let p = program(Size::Tiny);
        let want = expected(Size::Tiny);
        for cfg in [VmConfig::interpreter(), VmConfig::jit()] {
            let r = Vm::new(&p, cfg).run(&mut CountingSink::new()).unwrap();
            assert_eq!(r.exit_value, Some(want));
            assert_eq!(r.counters.threads_created, 5);
        }
    }

    #[test]
    fn context_bodies_are_byte_identical() {
        let p = program(Size::Tiny);
        let c0 = p.class_file(p.class("Ctx0").unwrap());
        for name in ["Ctx1", "Ctx2", "Ctx3"] {
            let cn = p.class_file(p.class(name).unwrap());
            for (a, b) in c0.methods.iter().zip(cn.methods.iter()) {
                assert_eq!(a.code, b.code, "{}::{} differs from Ctx0", name, a.name);
            }
        }
    }

    #[test]
    fn shared_scope_translates_fewer_methods() {
        let p = program(Size::Tiny);
        let want = expected(Size::Tiny);
        let run = |scope| {
            let cfg = VmConfig::jit().with_code_cache(CodeCacheConfig::default().with_scope(scope));
            Vm::new(&p, cfg).run(&mut CountingSink::new()).unwrap()
        };
        let private = run(CacheScope::PerThread);
        let shared = run(CacheScope::Shared);
        assert_eq!(private.exit_value, Some(want));
        assert_eq!(shared.exit_value, Some(want));
        assert!(
            shared.counters.methods_translated < private.counters.methods_translated,
            "shared {} !< private {}",
            shared.counters.methods_translated,
            private.counters.methods_translated
        );
    }
}
