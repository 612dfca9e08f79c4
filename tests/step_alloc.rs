//! `Vm::run` makes no host heap allocation per bytecode, and an invoke
//! allocates only the callee frame.
//!
//! This file is its own test binary because it installs a counting
//! global allocator. Each engine runs the same loop at N and at 10·N
//! iterations; the allocations made inside `Vm::run` once (class
//! loading, thread and frame set-up, first translation or lowering,
//! the result) do not depend on the trip count, so the difference of
//! the two counts is what the extra iterations allocated. A call-free
//! loop must allocate nothing per iteration. A loop around an
//! `invokestatic` must allocate exactly the callee frame's locals and
//! operand stack per call: the arguments move from the caller's
//! operand stack straight into the callee's locals.
//!
//! The loops keep out the bytecodes that allocate by design:
//! `tableswitch` decodes its target list into a `Vec`, and
//! `new`/`newarray` allocate simulated objects whose storage lives on
//! the host heap. The object and the array the call-free loop reads and
//! writes are allocated once, before it.

use javart::bytecode::{ArrayKind, ClassAsm, MethodAsm, Program, RetKind};
use javart::trace::CountingSink;
use javart::vm::{Vm, VmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations and reallocations made by the current thread
/// while `COUNTING` is set; other threads of the test harness are
/// never counted.
struct CountingAllocator;

fn note_allocation() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System` upholds the `GlobalAlloc` contract; the counting touches
// only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A loop of `trips` iterations over locals, ALU ops, compare-branches
/// (taken and not taken), `getstatic`/`putstatic`,
/// `getfield`/`putfield` and `int[]` loads and stores.
fn looping_program(trips: i32) -> Program {
    let mut cell = ClassAsm::new("Cell");
    cell.add_field("f");

    let mut c = ClassAsm::new("Main");
    c.add_static_field("s");
    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    let top = m.new_label();
    let even = m.new_label();
    let end = m.new_label();
    // locals: 0 = Cell, 1 = int[16], 2 = i, 3 = acc
    m.new_obj("Cell").astore(0);
    m.iconst(16).newarray(ArrayKind::Int).astore(1);
    m.iconst(0).istore(2).iconst(1).istore(3);
    m.bind(top);
    m.iload(2).iconst(trips).if_icmp_ge(end);
    // acc = (acc + i) * 3 - (acc >> 2)
    m.iload(3).iload(2).iadd().iconst(3).imul();
    m.iload(3).iconst(2).ishr().isub().istore(3);
    // odd trips bump acc once more
    m.iload(2).iconst(1).iand().if_eq(even);
    m.iinc(3, 1);
    m.bind(even);
    // Main.s ^= acc
    m.getstatic("Main", "s").iload(3).ixor();
    m.putstatic("Main", "s");
    // cell.f += i
    m.aload(0).aload(0).getfield("Cell", "f").iload(2).iadd();
    m.putfield("Cell", "f");
    // a[i & 15] = a[(i + 1) & 15] + acc
    m.aload(1).iload(2).iconst(15).iand();
    m.aload(1).iload(2).iconst(1).iadd();
    m.iconst(15).iand().iaload();
    m.iload(3).iadd().iastore();
    m.iinc(2, 1).goto(top);
    m.bind(end);
    m.getstatic("Main", "s").aload(0);
    m.getfield("Cell", "f").iadd();
    m.aload(1).iconst(3).iaload().iadd().ireturn();
    c.add_method(m);
    Program::build(vec![c, cell], "Main", "main").expect("assembles")
}

/// A loop of `trips` iterations whose body calls a static method of
/// two arguments: `acc = mix(acc, i)`.
fn calling_program(trips: i32) -> Program {
    let mut c = ClassAsm::new("Main");
    let mut mix = MethodAsm::new("mix", 2).returns(RetKind::Int);
    // (a ^ b) * 3 + b
    mix.iload(0).iload(1).ixor().iconst(3).imul();
    mix.iload(1).iadd().ireturn();
    c.add_method(mix);

    let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
    let top = m.new_label();
    let end = m.new_label();
    // locals: 0 = i, 1 = acc
    m.iconst(0).istore(0).iconst(1).istore(1);
    m.bind(top);
    m.iload(0).iconst(trips).if_icmp_ge(end);
    m.iload(1).iload(0);
    m.invokestatic("Main", "mix", 2, RetKind::Int);
    m.istore(1);
    m.iinc(0, 1).goto(top);
    m.bind(end);
    m.iload(1).ireturn();
    c.add_method(m);
    Program::build(vec![c], "Main", "main").expect("assembles")
}

/// The engines, with their labels.
fn engines() -> [(&'static str, VmConfig); 5] {
    [
        ("interp", VmConfig::interpreter()),
        ("interp+folding", VmConfig::interpreter().with_folding()),
        ("jit", VmConfig::jit()),
        ("ir-interp", VmConfig::ir_interp()),
        ("ir-jit", VmConfig::ir_jit()),
    ]
}

/// Runs `program` under `config` and returns the exit value, the
/// bytecodes executed and the allocations `Vm::run` made.
fn run_counted(program: &Program, config: VmConfig) -> (i32, u64, u64) {
    let mut vm = Vm::new(program, config);
    let mut sink = CountingSink::new();
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let result = vm.run(&mut sink);
    COUNTING.with(|on| on.set(false));
    let allocations = ALLOCATIONS.with(Cell::get);
    let result = result.expect("loop runs");
    (
        result.exit_value.expect("int result"),
        result.counters.bytecodes,
        allocations,
    )
}

/// Runs `build(N)` and `build(10·N)` on every engine, checks that
/// they agree with the interpreter and that the long run executes
/// the loop ten times as often, and returns each engine's label and
/// the allocations of its extra `9·N` iterations.
fn extra_allocations(build: fn(i32) -> Program, n: i32) -> Vec<(&'static str, u64)> {
    let (short, long) = (build(n), build(10 * n));
    let mut interp_exits = None;
    let mut extra = Vec::new();
    for (label, config) in engines() {
        let (short_exit, short_bytecodes, short_allocs) = run_counted(&short, config.clone());
        let (long_exit, long_bytecodes, long_allocs) = run_counted(&long, config);
        let exits = (short_exit, long_exit);
        assert_eq!(
            *interp_exits.get_or_insert(exits),
            exits,
            "{label}: exit values differ from the interpreter's"
        );
        assert!(
            long_bytecodes > 9 * short_bytecodes,
            "{label}: the long run executes the loop ten times as often"
        );
        assert!(
            long_allocs >= short_allocs,
            "{label}: {short_allocs} allocations at {short_bytecodes} bytecodes but \
             {long_allocs} at {long_bytecodes}"
        );
        extra.push((label, long_allocs - short_allocs));
    }
    extra
}

#[test]
fn step_allocates_nothing_per_bytecode_on_any_engine() {
    for (label, extra) in extra_allocations(looping_program, 1_000) {
        assert_eq!(
            extra, 0,
            "{label}: 9000 more iterations made {extra} allocations, so a step allocates"
        );
    }
}

#[test]
fn an_invoke_allocates_only_the_callee_frame_on_any_engine() {
    const N: i32 = 1_000;
    // The callee frame's locals and operand stack.
    const PER_CALL: u64 = 2;
    let calls = 9 * N as u64;
    for (label, extra) in extra_allocations(calling_program, N) {
        assert_eq!(
            extra,
            PER_CALL * calls,
            "{label}: {calls} more calls made {extra} allocations, not {PER_CALL} per call"
        );
    }
}
