//! `Vm::run` makes no host heap allocation per bytecode.
//!
//! This file is its own test binary because it installs a counting
//! global allocator. Each engine runs the same call-free loop at N and
//! at 10·N iterations; the allocations made inside `Vm::run` (class
//! loading, thread and frame set-up, first translation or lowering,
//! the result) must not depend on the trip count, so the two counts
//! must be equal.
//!
//! The loop keeps out the bytecodes that allocate by design:
//! `tableswitch` decodes its target list into a `Vec`, an invoke pops
//! its arguments into the callee frame's `Vec`s, and `new`/`newarray`
//! allocate simulated objects whose storage lives on the host heap.
//! The object and the array the loop reads and writes are allocated
//! once, before it.

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

#[test]
fn step_allocates_nothing_per_bytecode_on_any_engine() {
    const N: i32 = 1_000;
    let short = looping_program(N);
    let long = looping_program(10 * N);
    let engines = [
        ("interp", VmConfig::interpreter()),
        ("interp+folding", VmConfig::interpreter().with_folding()),
        ("jit", VmConfig::jit()),
        ("ir-interp", VmConfig::ir_interp()),
        ("ir-jit", VmConfig::ir_jit()),
    ];
    let mut interp_exits = None;
    for (label, config) in engines {
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
        assert_eq!(
            short_allocs, long_allocs,
            "{label}: {short_allocs} allocations at {short_bytecodes} bytecodes but \
             {long_allocs} at {long_bytecodes}, so a step allocates"
        );
    }
}
