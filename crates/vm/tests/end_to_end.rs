//! End-to-end VM tests: whole programs executed under both engines.

use jrt_bytecode::{ArrayKind, ClassAsm, MethodAsm, Program, RetKind};
use jrt_trace::{CountingSink, InstMix, Phase, RecordingSink};
use jrt_vm::{
    CacheScope, CodeCacheConfig, ExecMode, JitPolicy, OracleDecisions, SyncKind, Vm, VmConfig,
    VmError,
};

/// The `Sys` class with the VM's native intrinsics.
fn sys_class() -> ClassAsm {
    let mut sys = ClassAsm::new("Sys");
    sys.add_method(MethodAsm::native("print_int", 1, RetKind::Void));
    sys.add_method(MethodAsm::native("print_char", 1, RetKind::Void));
    sys.add_method(MethodAsm::native("arraycopy", 5, RetKind::Void));
    sys.add_method(MethodAsm::native("spawn", 1, RetKind::Int));
    sys.add_method(MethodAsm::native("join", 1, RetKind::Void));
    sys
}

fn run_both(program: &Program) -> (i32, i32) {
    let a = Vm::new(program, VmConfig::interpreter())
        .run(&mut CountingSink::new())
        .expect("interp run");
    let b = Vm::new(program, VmConfig::jit())
        .run(&mut CountingSink::new())
        .expect("jit run");
    (
        a.exit_value.expect("int exit"),
        b.exit_value.expect("int exit"),
    )
}

/// Sum of 1..=100 via a loop.
fn loop_program() -> Program {
    let mut c = ClassAsm::new("Main");
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    let (sum, i) = (0u8, 1u8);
    let top = m.new_label();
    let end = m.new_label();
    m.iconst(0).istore(sum).iconst(1).istore(i);
    m.bind(top);
    m.iload(i).iconst(100).if_icmp_gt(end);
    m.iload(sum).iload(i).iadd().istore(sum);
    m.iinc(i, 1).goto(top);
    m.bind(end);
    m.iload(sum).ireturn();
    c.add_method(m);
    Program::build(vec![c], "Main", "main").unwrap()
}

#[test]
fn loop_sums_in_both_modes() {
    let p = loop_program();
    let (i, j) = run_both(&p);
    assert_eq!(i, 5050);
    assert_eq!(j, 5050);
}

#[test]
fn arithmetic_ops_match_java_semantics() {
    let mut c = ClassAsm::new("Main");
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    // (((7 * -3) % 4) << 2) ^ (100 / 7) with wrapping add of i32::MAX
    m.iconst(7).iconst(-3).imul(); // -21
    m.iconst(4).irem(); // -1
    m.iconst(2).ishl(); // -4
    m.iconst(100).iconst(7).idiv(); // 14
    m.ixor(); // -4 ^ 14 = -14
    m.iconst(i32::MAX).iadd(); // wrapping
    m.ireturn();
    c.add_method(m);
    let p = Program::build(vec![c], "Main", "main").unwrap();
    let (a, b) = run_both(&p);
    let expect = (-14i32).wrapping_add(i32::MAX);
    assert_eq!(a, expect);
    assert_eq!(b, expect);
}

/// Object graph + virtual dispatch: Shape.area() overridden.
fn shapes_program() -> Program {
    let mut shape = ClassAsm::new("Shape");
    shape.add_field("side");
    let mut area = MethodAsm::new_instance("area", 0).returns(RetKind::Int);
    area.aload(0)
        .getfield("Shape", "side")
        .dup()
        .imul()
        .ireturn();
    shape.add_method(area);
    let mut ctor = MethodAsm::new_instance("init", 1);
    ctor.aload(0).iload(1).putfield("Shape", "side").ret();
    shape.add_method(ctor);

    let mut tri = ClassAsm::with_super("Tri", "Shape");
    let mut area2 = MethodAsm::new_instance("area", 0).returns(RetKind::Int);
    area2
        .aload(0)
        .getfield("Shape", "side")
        .dup()
        .imul()
        .iconst(2)
        .idiv()
        .ireturn();
    tri.add_method(area2);

    let mut main = ClassAsm::new("Main");
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    // new Shape(4).area() + new Tri(4).area() = 16 + 8 = 24
    m.new_obj("Shape").astore(0);
    m.aload(0)
        .iconst(4)
        .invokespecial("Shape", "init", 1, RetKind::Void);
    m.new_obj("Tri").astore(1);
    m.aload(1)
        .iconst(4)
        .invokespecial("Shape", "init", 1, RetKind::Void);
    m.aload(0).invokevirtual("Shape", "area", 0, RetKind::Int);
    m.aload(1).invokevirtual("Shape", "area", 0, RetKind::Int);
    m.iadd().ireturn();
    c_add(&mut main, m);
    Program::build(vec![shape, tri, main], "Main", "main").unwrap()
}

fn c_add(c: &mut ClassAsm, m: MethodAsm) {
    c.add_method(m);
}

#[test]
fn virtual_dispatch_selects_override() {
    let p = shapes_program();
    let (a, b) = run_both(&p);
    assert_eq!(a, 24);
    assert_eq!(b, 24);
}

#[test]
fn arrays_and_tableswitch() {
    let mut c = ClassAsm::new("Main");
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    let (arr, i, acc) = (0u8, 1u8, 2u8);
    // arr[k] = classify(k) via tableswitch, then sum the array.
    m.iconst(8).newarray(ArrayKind::Int).astore(arr);
    m.iconst(0).istore(i);
    let top = m.new_label();
    let done = m.new_label();
    let c0 = m.new_label();
    let c1 = m.new_label();
    let dfl = m.new_label();
    let store = m.new_label();
    m.bind(top);
    m.iload(i).iconst(8).if_icmp_ge(done);
    m.iload(i).iconst(3).irem();
    m.tableswitch(0, dfl, &[c0, c1]);
    m.bind(c0);
    m.iconst(100).goto(store);
    m.bind(c1);
    m.iconst(10).goto(store);
    m.bind(dfl);
    m.iconst(1).goto(store);
    m.bind(store);
    m.istore(3);
    m.aload(arr).iload(i).iload(3).iastore();
    m.iinc(i, 1).goto(top);
    m.bind(done);
    // Sum.
    m.iconst(0).istore(acc).iconst(0).istore(i);
    let t2 = m.new_label();
    let d2 = m.new_label();
    m.bind(t2);
    m.iload(i).aload(arr).arraylength().if_icmp_ge(d2);
    m.iload(acc).aload(arr).iload(i).iaload().iadd().istore(acc);
    m.iinc(i, 1).goto(t2);
    m.bind(d2);
    m.iload(acc).ireturn();
    c.add_method(m);
    let p = Program::build(vec![c], "Main", "main").unwrap();
    // k%3: 0,1,2,0,1,2,0,1 -> 100,10,1,100,10,1,100,10 = 332
    let (a, b) = run_both(&p);
    assert_eq!(a, 332);
    assert_eq!(b, 332);
}

#[test]
fn intrinsics_print_and_arraycopy() {
    let mut c = ClassAsm::new("Main");
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    m.iconst(4).newarray(ArrayKind::Int).astore(0);
    m.iconst(4).newarray(ArrayKind::Int).astore(1);
    m.aload(0).iconst(0).iconst(11).iastore();
    m.aload(0).iconst(1).iconst(22).iastore();
    m.aload(0)
        .iconst(0)
        .aload(1)
        .iconst(2)
        .iconst(2)
        .invokestatic("Sys", "arraycopy", 5, RetKind::Void);
    m.aload(1)
        .iconst(3)
        .iaload()
        .invokestatic("Sys", "print_int", 1, RetKind::Void);
    m.aload(1)
        .iconst(2)
        .iaload()
        .aload(1)
        .iconst(3)
        .iaload()
        .iadd()
        .ireturn();
    c.add_method(m);
    let p = Program::build(vec![c, sys_class()], "Main", "main").unwrap();
    let r = Vm::new(&p, VmConfig::jit())
        .run(&mut CountingSink::new())
        .unwrap();
    assert_eq!(r.exit_value, Some(33));
    assert_eq!(r.output.ints, vec![22]);
}

#[test]
fn recursion_fibonacci() {
    let mut c = ClassAsm::new("Main");
    let mut fib = MethodAsm::new("fib", 1).returns(RetKind::Int);
    let rec = fib.new_label();
    fib.iload(0).iconst(2).if_icmp_ge(rec);
    fib.iload(0).ireturn();
    fib.bind(rec);
    fib.iload(0)
        .iconst(1)
        .isub()
        .invokestatic("Main", "fib", 1, RetKind::Int);
    fib.iload(0)
        .iconst(2)
        .isub()
        .invokestatic("Main", "fib", 1, RetKind::Int);
    fib.iadd().ireturn();
    c.add_method(fib);
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    m.iconst(12)
        .invokestatic("Main", "fib", 1, RetKind::Int)
        .ireturn();
    c.add_method(m);
    let p = Program::build(vec![c], "Main", "main").unwrap();
    let (a, b) = run_both(&p);
    assert_eq!(a, 144);
    assert_eq!(b, 144);
}

#[test]
fn synchronized_methods_and_monitor_ops() {
    let mut c = ClassAsm::new("Main");
    c.add_static_field("counter");
    let mut bump = MethodAsm::new("bump", 0).synchronized();
    bump.getstatic("Main", "counter")
        .iconst(1)
        .iadd()
        .putstatic("Main", "counter");
    bump.ret();
    c.add_method(bump);
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    let (i,) = (0u8,);
    let top = m.new_label();
    let done = m.new_label();
    m.iconst(0).istore(i);
    m.bind(top);
    m.iload(i).iconst(50).if_icmp_ge(done);
    m.invokestatic("Main", "bump", 0, RetKind::Void);
    m.iinc(i, 1).goto(top);
    m.bind(done);
    m.getstatic("Main", "counter").ireturn();
    c.add_method(m);
    let p = Program::build(vec![c], "Main", "main").unwrap();

    for sync in SyncKind::ALL {
        let r = Vm::new(&p, VmConfig::jit().with_sync(sync))
            .run(&mut CountingSink::new())
            .unwrap();
        assert_eq!(r.exit_value, Some(50), "{sync:?}");
        assert_eq!(r.sync_stats.enters(), 50, "{sync:?}");
        assert_eq!(r.sync_stats.exits, 50, "{sync:?}");
        // All uncontended first-acquisitions: case (a).
        assert_eq!(r.sync_stats.case_counts[0], 50, "{sync:?}");
    }
}

#[test]
fn spawn_join_two_threads() {
    // Worker.run() writes sum of its range into its field.
    let mut worker = ClassAsm::new("Worker");
    worker.add_field("from");
    worker.add_field("result");
    let mut run = MethodAsm::new_instance("run", 0);
    let (i, acc) = (1u8, 2u8);
    let top = run.new_label();
    let done = run.new_label();
    run.iconst(0).istore(acc);
    run.aload(0).getfield("Worker", "from").istore(i);
    run.bind(top);
    run.iload(i)
        .aload(0)
        .getfield("Worker", "from")
        .iconst(100)
        .iadd()
        .if_icmp_ge(done);
    run.iload(acc).iload(i).iadd().istore(acc);
    run.iinc(i, 1).goto(top);
    run.bind(done);
    run.aload(0).iload(acc).putfield("Worker", "result").ret();
    worker.add_method(run);

    let mut main = ClassAsm::new("Main");
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    m.new_obj("Worker").astore(0);
    m.aload(0).iconst(0).putfield("Worker", "from");
    m.new_obj("Worker").astore(1);
    m.aload(1).iconst(1000).putfield("Worker", "from");
    m.aload(0)
        .invokestatic("Sys", "spawn", 1, RetKind::Int)
        .istore(2);
    m.aload(1)
        .invokestatic("Sys", "spawn", 1, RetKind::Int)
        .istore(3);
    m.iload(2).invokestatic("Sys", "join", 1, RetKind::Void);
    m.iload(3).invokestatic("Sys", "join", 1, RetKind::Void);
    m.aload(0).getfield("Worker", "result");
    m.aload(1).getfield("Worker", "result");
    m.iadd().ireturn();
    main.add_method(m);
    let p = Program::build(vec![worker, main, sys_class()], "Main", "main").unwrap();

    let expect: i32 = (0..100).sum::<i32>() + (1000..1100).sum::<i32>();
    for cfg in [VmConfig::interpreter(), VmConfig::jit()] {
        let r = Vm::new(&p, cfg).run(&mut CountingSink::new()).unwrap();
        assert_eq!(r.exit_value, Some(expect));
        assert_eq!(r.counters.threads_created, 3);
    }
}

#[test]
fn interp_emits_dispatch_jit_emits_code_cache() {
    let p = loop_program();

    let mut rec = RecordingSink::new();
    Vm::new(&p, VmConfig::interpreter()).run(&mut rec).unwrap();
    assert!(
        rec.events
            .iter()
            .any(|e| e.phase == Phase::InterpDispatch
                && e.class == jrt_trace::InstClass::IndirectJump)
    );
    assert!(rec.events.iter().all(|e| e.phase != Phase::Translate));

    let mut rec = RecordingSink::new();
    Vm::new(&p, VmConfig::jit()).run(&mut rec).unwrap();
    assert!(rec.events.iter().any(|e| e.phase == Phase::Translate));
    assert!(rec.events.iter().any(|e| e.phase == Phase::NativeExec
        && jrt_trace::Region::classify(e.pc) == Some(jrt_trace::Region::CodeCache)));
}

#[test]
fn interp_has_higher_memory_fraction_than_jit() {
    let p = loop_program();
    let mut interp_mix = InstMix::new();
    Vm::new(&p, VmConfig::interpreter())
        .run(&mut interp_mix)
        .unwrap();
    let mut jit_mix = InstMix::new();
    Vm::new(&p, VmConfig::jit()).run(&mut jit_mix).unwrap();
    assert!(
        interp_mix.memory_fraction() > jit_mix.memory_fraction(),
        "interp {} vs jit {}",
        interp_mix.memory_fraction(),
        jit_mix.memory_fraction()
    );
    assert!(interp_mix.indirect_share_of_transfers() > jit_mix.indirect_share_of_transfers());
}

#[test]
fn oracle_is_no_slower_than_either_pure_mode() {
    // The Figure 1 property: opt (per-method oracle) beats or matches
    // both pure interpretation and translate-everything.
    let p = shapes_program();
    let mut i_sink = CountingSink::new();
    let interp = Vm::new(&p, VmConfig::interpreter())
        .run(&mut i_sink)
        .unwrap();
    let mut j_sink = CountingSink::new();
    let jit = Vm::new(&p, VmConfig::jit()).run(&mut j_sink).unwrap();
    let decisions = OracleDecisions::from_profiles(&interp.profile, &jit.profile);

    let mut o_sink = CountingSink::new();
    let r = Vm::new(&p, VmConfig::oracle(decisions))
        .run(&mut o_sink)
        .unwrap();
    assert_eq!(r.exit_value, Some(24));
    // Allow 2% slack: the oracle optimizes per-method costs, and
    // call-boundary emission differs slightly across modes.
    let slack = |n: u64| n + n / 50;
    assert!(
        o_sink.total() <= slack(i_sink.total()),
        "opt {} vs interp {}",
        o_sink.total(),
        i_sink.total()
    );
    assert!(
        o_sink.total() <= slack(j_sink.total()),
        "opt {} vs jit {}",
        o_sink.total(),
        j_sink.total()
    );
}

#[test]
fn threshold_policy_translates_after_k_invocations() {
    let p = {
        // main calls helper() 10 times.
        let mut c = ClassAsm::new("Main");
        let mut h = MethodAsm::new("helper", 1).returns(RetKind::Int);
        h.iload(0).iconst(3).imul().ireturn();
        c.add_method(h);
        let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(0).istore(0).iconst(0).istore(1);
        m.bind(top);
        m.iload(1).iconst(10).if_icmp_ge(done);
        m.iload(0)
            .iload(1)
            .invokestatic("Main", "helper", 1, RetKind::Int)
            .iadd()
            .istore(0);
        m.iinc(1, 1).goto(top);
        m.bind(done);
        m.iload(0).ireturn();
        c.add_method(m);
        Program::build(vec![c], "Main", "main").unwrap()
    };
    let cfg = VmConfig {
        mode: ExecMode::Jit(JitPolicy::Threshold(5)),
        ..VmConfig::default()
    };
    let r = Vm::new(&p, cfg).run(&mut CountingSink::new()).unwrap();
    assert_eq!(r.exit_value, Some(135)); // 3 * sum(0..10)
    assert_eq!(r.counters.methods_translated, 1, "helper only");
    let helper = p.resolve_method("Main", "helper").unwrap();
    let prof = r.profile.get(helper).unwrap();
    assert!(prof.interp_cycles > 0, "first invocations interpreted");
    assert!(prof.native_cycles > 0, "later invocations translated");
}

#[test]
fn gc_collects_garbage_during_run() {
    // Allocate 5000 throwaway arrays with a tiny GC threshold.
    let mut c = ClassAsm::new("Main");
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    let top = m.new_label();
    let done = m.new_label();
    m.iconst(0).istore(0);
    m.bind(top);
    m.iload(0).iconst(5000).if_icmp_ge(done);
    m.iconst(64).newarray(ArrayKind::Int).astore(1);
    m.iinc(0, 1).goto(top);
    m.bind(done);
    m.iload(0).ireturn();
    c.add_method(m);
    let p = Program::build(vec![c], "Main", "main").unwrap();
    let cfg = VmConfig {
        gc_threshold: 64 * 1024,
        ..VmConfig::jit()
    };
    let mut sink = CountingSink::new();
    let r = Vm::new(&p, cfg).run(&mut sink).unwrap();
    assert_eq!(r.exit_value, Some(5000));
    assert!(r.counters.gc_runs > 0);
    assert!(r.counters.gc_freed_bytes > 0);
    assert!(sink.phase(Phase::Gc) > 0);
}

/// The engines a runtime fault must surface on, each with the
/// faulting method and bytecode pc.
fn fault_engines() -> [(&'static str, VmConfig); 5] {
    [
        ("interp", VmConfig::interpreter()),
        ("interp-fold", VmConfig::interpreter().with_folding()),
        ("jit", VmConfig::jit()),
        ("ir-interp", VmConfig::ir_interp()),
        ("ir-jit", VmConfig::ir_jit()),
    ]
}

#[test]
fn null_dereference_is_reported() {
    let mut c = ClassAsm::new("Main");
    c.add_field("x");
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    m.aconst_null().getfield("Main", "x").ireturn();
    c.add_method(m);
    let p = Program::build(vec![c], "Main", "main").unwrap();
    for (label, cfg) in fault_engines() {
        let err = Vm::new(&p, cfg).run(&mut CountingSink::new()).unwrap_err();
        // `getfield` follows the one-byte `aconst_null`.
        let want = VmError::NullPointer {
            method: "Main::main".into(),
            pc: 1,
        };
        assert_eq!(err, want, "{label}");
    }
}

#[test]
fn divide_by_zero_is_reported() {
    let mut c = ClassAsm::new("Main");
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    m.iconst(1).iconst(0).idiv().ireturn();
    c.add_method(m);
    let p = Program::build(vec![c], "Main", "main").unwrap();
    for (label, cfg) in fault_engines() {
        let err = Vm::new(&p, cfg).run(&mut CountingSink::new()).unwrap_err();
        // `idiv` follows two five-byte `iconst`s.
        let want = VmError::DivideByZero {
            method: "Main::main".into(),
            pc: 10,
        };
        assert_eq!(err, want, "{label}");
    }
}

#[test]
fn budget_exceeded_stops_infinite_loop() {
    let mut c = ClassAsm::new("Main");
    let mut m = MethodAsm::new("main", 0);
    let top = m.new_label();
    m.bind(top);
    m.goto(top);
    c.add_method(m);
    let p = Program::build(vec![c], "Main", "main").unwrap();
    let cfg = VmConfig {
        max_bytecodes: 10_000,
        ..VmConfig::interpreter()
    };
    assert_eq!(
        Vm::new(&p, cfg).run(&mut CountingSink::new()).unwrap_err(),
        VmError::BudgetExceeded
    );
}

#[test]
fn jit_footprint_exceeds_interpreter_footprint() {
    let p = shapes_program();
    let interp = Vm::new(&p, VmConfig::interpreter())
        .run(&mut CountingSink::new())
        .unwrap();
    let jit = Vm::new(&p, VmConfig::jit())
        .run(&mut CountingSink::new())
        .unwrap();
    assert_eq!(interp.footprint.code_cache_bytes, 0);
    assert!(jit.footprint.code_cache_bytes > 0);
    assert!(jit.footprint.total() > interp.footprint.total());
    let ratio = jit.footprint.total() as f64 / interp.footprint.total() as f64;
    assert!(ratio > 1.0 && ratio < 2.0, "Table 1 band, got {ratio}");
}

#[test]
fn jit_executes_fewer_instructions_on_hot_loops() {
    let p = loop_program();
    let mut i_sink = CountingSink::new();
    Vm::new(&p, VmConfig::interpreter())
        .run(&mut i_sink)
        .unwrap();
    let mut j_sink = CountingSink::new();
    Vm::new(&p, VmConfig::jit()).run(&mut j_sink).unwrap();
    // Ignoring one-time class-load cost, compare the execution parts:
    let interp_exec = i_sink.phase(Phase::InterpDispatch)
        + i_sink.phase(Phase::InterpHandler)
        + i_sink.phase(Phase::Runtime);
    let jit_exec = j_sink.phase(Phase::NativeExec) + j_sink.phase(Phase::Runtime);
    assert!(
        interp_exec > 2 * jit_exec,
        "interp {interp_exec} vs jit {jit_exec}"
    );
}

#[test]
fn fuel_traps_at_exact_bytecode_index() {
    let p = loop_program();
    let full = Vm::new(&p, VmConfig::interpreter())
        .run(&mut CountingSink::new())
        .unwrap();
    let budget = full.counters.bytecodes / 2;
    let cfg = VmConfig::interpreter().with_fuel(budget);
    let mut vm = Vm::new(&p, cfg);
    let run = vm.run_observed(&mut CountingSink::new());
    assert_eq!(
        run.observables.outcome,
        Err(format!("fuel exhausted after {budget} bytecodes"))
    );
    assert_eq!(run.observables.bytecodes, budget);
    // A budget past the program's end never fires.
    let generous = VmConfig::interpreter().with_fuel(full.counters.bytecodes + 1);
    let r = Vm::new(&p, generous).run(&mut CountingSink::new()).unwrap();
    assert_eq!(r.exit_value, Some(5050));
}

#[test]
fn fuel_wins_ties_against_max_bytecodes() {
    let p = loop_program();
    let cfg = VmConfig {
        max_bytecodes: 50,
        ..VmConfig::interpreter().with_fuel(50)
    };
    assert_eq!(
        Vm::new(&p, cfg).run(&mut CountingSink::new()).unwrap_err(),
        VmError::FuelExhausted { budget: 50 }
    );
}

#[test]
fn reset_vm_reproduces_fresh_observables() {
    let p = loop_program();
    let q = shapes_program();
    for cfg in [
        VmConfig::interpreter(),
        VmConfig::jit(),
        VmConfig::ir_jit(),
        VmConfig::jit().with_code_cache(CodeCacheConfig::default().with_scope(CacheScope::Shared)),
    ] {
        let fresh_p = Vm::new(&p, cfg.clone()).run_observed(&mut CountingSink::new());
        let fresh_q = Vm::new(&q, cfg.clone()).run_observed(&mut CountingSink::new());
        let mut vm = Vm::new(&p, cfg);
        let first = vm.run_observed(&mut CountingSink::new());
        assert_eq!(first.observables, fresh_p.observables);
        // Same program again.
        vm.reset();
        let again = vm.run_observed(&mut CountingSink::new());
        assert_eq!(again.observables, fresh_p.observables);
        // Cross-program reuse.
        vm.reset_for(&q);
        let other = vm.run_observed(&mut CountingSink::new());
        assert_eq!(other.observables, fresh_q.observables);
        // And back.
        vm.reset_for(&p);
        let back = vm.run_observed(&mut CountingSink::new());
        assert_eq!(back.observables, fresh_p.observables);
    }
}

#[test]
fn rerun_without_reset_is_an_error() {
    let p = loop_program();
    let mut vm = Vm::new(&p, VmConfig::interpreter());
    vm.run(&mut CountingSink::new()).unwrap();
    assert!(matches!(
        vm.run(&mut CountingSink::new()).unwrap_err(),
        VmError::Internal(_)
    ));
}

#[test]
fn shared_scope_reset_keeps_cache_warm_and_counts_dedup() {
    let p = loop_program();
    let cfg =
        VmConfig::jit().with_code_cache(CodeCacheConfig::default().with_scope(CacheScope::Shared));
    let mut vm = Vm::new(&p, cfg);
    let first = vm.run(&mut CountingSink::new()).unwrap();
    assert!(first.counters.methods_translated > 0);
    vm.reset();
    let second = vm.run(&mut CountingSink::new()).unwrap();
    // Byte-identical bodies resolve to the warm install: no second
    // translation, and the manager counted the dedup hits.
    assert_eq!(second.counters.methods_translated, 0);
    assert!(second.counters.code_installs >= first.counters.code_installs);
    let stats = &second.counters;
    assert_eq!(stats.code_evictions, 0);
    // Per-VM scope rebuilds instead: the second run translates again.
    let mut pv = Vm::new(&p, VmConfig::jit());
    let a = pv.run(&mut CountingSink::new()).unwrap();
    pv.reset();
    let b = pv.run(&mut CountingSink::new()).unwrap();
    assert_eq!(a.counters.methods_translated, b.counters.methods_translated);
    assert!(b.counters.methods_translated > 0);
}
