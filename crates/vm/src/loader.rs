//! Lazy class loading, resolution, and runtime linking.
//!
//! Classes are loaded on first use (entry class at startup, others on
//! `new`/static access/invocation), as in a real JVM — the paper's
//! Figure 6 attributes the interpreter's initial miss spikes to class
//! loading. Loading a class:
//!
//! * places its bytecode image in the simulated
//!   [`ClassArea`](jrt_trace::Region::ClassArea) (interpreters later
//!   *read bytecodes as data* from these addresses);
//! * flattens the instance-field layout over the superclass chain and
//!   assigns static storage in the VM-data region;
//! * builds the virtual dispatch table;
//! * allocates the class object (used by synchronized static methods);
//! * emits a class-load trace: reads of the class image, stores into
//!   the method/constant tables, and a verifier sweep.

use crate::heap::{Handle, Heap, Value};
use crate::vm::VmError;
use jrt_bytecode::{ClassId, CpIndex, MethodId, Program};
use jrt_trace::{layout, Addr, NativeInst, Phase, TraceSink};
use std::collections::HashMap;

/// Runtime view of one loaded class.
#[derive(Debug, Clone)]
pub struct LoadedClass {
    /// The class id.
    pub id: ClassId,
    /// Flattened instance-field names: superclass fields first.
    pub field_names: Vec<String>,
    field_index: HashMap<String, usize>,
    /// Static-field name → slot in this class's static storage.
    static_index: HashMap<String, usize>,
    /// Virtual dispatch table: method name → implementing method.
    vtable: HashMap<String, MethodId>,
    /// Base address of this class's bytecode image.
    pub image_addr: Addr,
    /// Size of the loaded image in bytes (code + pool + tables).
    pub image_bytes: u32,
    /// Per-method bytecode base address (index = method slot).
    pub code_addr: Vec<Addr>,
    /// Base address of static storage.
    pub static_addr: Addr,
    /// The class object (receiver of static synchronized methods).
    pub class_object: Handle,
}

impl LoadedClass {
    /// Slot of instance field `name` in the flattened layout.
    pub fn field_slot(&self, name: &str) -> Option<usize> {
        self.field_index.get(name).copied()
    }

    /// Number of instance fields (flattened).
    pub fn num_fields(&self) -> usize {
        self.field_names.len()
    }

    /// Slot of static field `name` declared by this class.
    pub fn static_slot(&self, name: &str) -> Option<usize> {
        self.static_index.get(name).copied()
    }

    /// Virtual lookup of `name` starting at this class.
    pub fn vtable_lookup(&self, name: &str) -> Option<MethodId> {
        self.vtable.get(name).copied()
    }
}

/// A resolved `getstatic`/`putstatic` pool entry: the class it names,
/// and the class and slot that declare the field (the named class or
/// one of its superclasses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StaticRef {
    /// The class the pool entry names.
    pub class: ClassId,
    /// The class that declares the field.
    pub owner: ClassId,
    /// The field's slot in `owner`'s static storage.
    pub slot: u32,
}

/// The runtime linker: loaded classes, static storage, address
/// assignment, and class-load trace emission.
#[derive(Debug)]
pub struct Linker {
    loaded: Vec<Option<LoadedClass>>,
    statics: Vec<Vec<Value>>,
    /// Resolved static-field pool entries, `static_refs[class][cp]`
    /// for entry `cp` of `class`'s pool (see [`Linker::static_field`]).
    static_refs: Vec<Vec<Option<StaticRef>>>,
    class_cursor: Addr,
    static_cursor: Addr,
    loader_pc: Addr,
    /// Total bytes of loaded class images (footprint accounting).
    pub loaded_bytes: u64,
    /// Number of classes loaded.
    pub classes_loaded: u32,
}

const LOADER_TEXT_BASE: Addr = layout::VM_TEXT_BASE + 0x8000;
const LOADER_TEXT_SIZE: Addr = 0x4000; // 16 KB of loader/verifier code

impl Linker {
    /// Creates an empty linker for a program with `num_classes`
    /// classes.
    pub fn new(num_classes: usize) -> Self {
        Linker {
            loaded: vec![None; num_classes],
            statics: vec![Vec::new(); num_classes],
            static_refs: vec![Vec::new(); num_classes],
            class_cursor: layout::CLASS_AREA_BASE,
            static_cursor: layout::VM_DATA_BASE + 0x10_0000,
            loader_pc: LOADER_TEXT_BASE,
            loaded_bytes: 0,
            classes_loaded: 0,
        }
    }

    /// Whether `id` is loaded.
    pub fn is_loaded(&self, id: ClassId) -> bool {
        self.loaded[id.0 as usize].is_some()
    }

    /// The loaded class `id`.
    ///
    /// # Panics
    ///
    /// Panics if the class has not been loaded (a VM sequencing bug).
    pub fn class(&self, id: ClassId) -> &LoadedClass {
        self.loaded[id.0 as usize]
            .as_ref()
            .expect("class must be loaded before use")
    }

    /// Reads static slot `idx` of class `id`.
    pub fn get_static(&self, id: ClassId, idx: usize) -> Value {
        self.statics[id.0 as usize][idx]
    }

    /// Writes static slot `idx` of class `id`.
    pub fn set_static(&mut self, id: ClassId, idx: usize, v: Value) {
        self.statics[id.0 as usize][idx] = v;
    }

    /// Raw 32-bit images of every class's static slots, in class
    /// order (unloaded classes contribute empty vectors). Part of the
    /// engine-independent observable state the differential fuzzer
    /// compares.
    pub fn statics_snapshot(&self) -> Vec<Vec<i32>> {
        self.statics
            .iter()
            .map(|slots| slots.iter().map(|v| v.to_raw()).collect())
            .collect()
    }

    /// Class objects of all loaded classes (GC roots; receivers of
    /// static synchronized methods).
    pub fn class_objects(&self) -> impl Iterator<Item = Handle> + '_ {
        self.loaded.iter().flatten().map(|c| c.class_object)
    }

    /// All static values (GC roots).
    pub fn static_roots(&self) -> impl Iterator<Item = Handle> + '_ {
        self.statics.iter().flatten().filter_map(|v| match v {
            Value::Ref(h) => Some(*h),
            _ => None,
        })
    }

    /// Bytecode base address of `mid` (requires the class loaded).
    #[inline]
    pub fn code_addr(&self, mid: MethodId) -> Addr {
        self.class(mid.class).code_addr[mid.index as usize]
    }

    /// Ensures `id` (and its superclasses) are loaded, emitting the
    /// class-load trace for anything newly loaded. Returns the number
    /// of instructions emitted. Every `new`, static access and invoke
    /// calls this, so its body is only the loaded check; the loading
    /// is cold.
    #[inline]
    pub fn ensure_loaded(
        &mut self,
        id: ClassId,
        program: &Program,
        heap: &mut Heap,
        sink: &mut dyn TraceSink,
    ) -> u64 {
        if self.is_loaded(id) {
            return 0;
        }
        self.load_chain(id, program, heap, sink)
    }

    /// [`Linker::ensure_loaded`] for a class that is not loaded yet.
    #[cold]
    #[inline(never)]
    fn load_chain(
        &mut self,
        id: ClassId,
        program: &Program,
        heap: &mut Heap,
        sink: &mut dyn TraceSink,
    ) -> u64 {
        let mut emitted = 0u64;

        // Load the superclass chain first (root to leaf).
        let chain = program.ancestry(id);
        for &cid in chain.iter().rev() {
            if !self.is_loaded(cid) {
                emitted += self.load_one(cid, program, heap, sink);
            }
        }
        emitted
    }

    fn loader_step(&mut self) -> Addr {
        // The loader/verifier has a sizeable code footprint; walk it
        // so class loading shows up in the I-cache (Figure 6 startup
        // spikes).
        let pc = self.loader_pc;
        self.loader_pc += 4;
        if self.loader_pc >= LOADER_TEXT_BASE + LOADER_TEXT_SIZE {
            self.loader_pc = LOADER_TEXT_BASE;
        }
        pc
    }

    fn load_one(
        &mut self,
        id: ClassId,
        program: &Program,
        heap: &mut Heap,
        sink: &mut dyn TraceSink,
    ) -> u64 {
        let cf = program.class_file(id);

        // Layout: superclass fields first.
        let mut field_names = Vec::new();
        if let Some(super_name) = &cf.super_name {
            let sid = program.class(super_name).expect("verified superclass");
            field_names.extend(self.class(sid).field_names.iter().cloned());
        }
        let mut static_names = Vec::new();
        for f in &cf.fields {
            if f.is_static {
                static_names.push(f.name.clone());
            } else {
                field_names.push(f.name.clone());
            }
        }
        let field_index = field_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let static_index: HashMap<String, usize> = static_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();

        // Vtable: superclass entries, overridden by local methods.
        let mut vtable: HashMap<String, MethodId> = match &cf.super_name {
            Some(s) => {
                let sid = program.class(s).expect("verified superclass");
                self.class(sid).vtable.clone()
            }
            None => HashMap::new(),
        };
        for (i, m) in cf.methods.iter().enumerate() {
            if !m.flags.is_static {
                vtable.insert(
                    m.name.clone(),
                    MethodId {
                        class: id,
                        index: i as u32,
                    },
                );
            }
        }

        // Address assignment.
        let pool_bytes = cf.pool.loaded_size();
        let code_bytes = cf.code_size();
        let table_bytes = 32 * cf.methods.len() as u32 + 16 * cf.fields.len() as u32;
        let image_bytes = pool_bytes + code_bytes + table_bytes + 64;
        let image_addr = self.class_cursor;
        self.class_cursor += u64::from(image_bytes.next_multiple_of(64));

        let mut code_addr = Vec::with_capacity(cf.methods.len());
        let mut cursor = image_addr + 64 + u64::from(pool_bytes);
        for m in &cf.methods {
            code_addr.push(cursor);
            cursor += m.code.len() as u64;
        }

        let static_addr = self.static_cursor;
        self.static_cursor += 4 * static_names.len().max(1) as u64;
        self.statics[id.0 as usize] = vec![Value::Null; static_names.len()];

        let class_object = heap
            .alloc_object(id, 0)
            .expect("class-object allocation cannot exhaust a fresh region");

        // Class-load trace: read the image, build tables, verify.
        let mut emitted = 0u64;
        let mut emit = |inst: NativeInst| {
            sink.accept(&inst);
        };
        // Read image (simulating classfile parse): one load per 8
        // bytes, one table store per 32 bytes.
        let parse_loads = (image_bytes / 8).max(4);
        for k in 0..parse_loads {
            let pc = self.loader_step();
            emit(NativeInst::load(
                pc,
                image_addr + u64::from(k * 8),
                4,
                Phase::ClassLoad,
            ));
            emitted += 1;
            if k % 4 == 0 {
                let pc2 = self.loader_step();
                emit(NativeInst::store(
                    pc2,
                    layout::VM_DATA_BASE + u64::from(k * 8 % 0x8000),
                    4,
                    Phase::ClassLoad,
                ));
                emitted += 1;
            }
            let pc3 = self.loader_step();
            emit(NativeInst::alu(pc3, Phase::ClassLoad));
            emitted += 1;
        }
        // Verifier sweep over the code.
        for k in 0..(code_bytes / 4).max(1) {
            let pc = self.loader_step();
            emit(NativeInst::load(
                pc,
                code_addr.first().copied().unwrap_or(image_addr) + u64::from(k * 4),
                4,
                Phase::ClassLoad,
            ));
            let pc2 = self.loader_step();
            emit(NativeInst::branch(
                pc2,
                LOADER_TEXT_BASE,
                k % 7 == 0,
                Phase::ClassLoad,
            ));
            emitted += 2;
        }

        self.loaded_bytes += u64::from(image_bytes);
        self.classes_loaded += 1;
        self.loaded[id.0 as usize] = Some(LoadedClass {
            id,
            field_names,
            field_index,
            static_index,
            vtable,
            image_addr,
            image_bytes,
            code_addr,
            static_addr,
            class_object,
        });
        emitted
    }

    /// Resolves the static-field owner and slot for `(class, name)`,
    /// searching the superclass chain.
    pub fn resolve_static(
        &self,
        program: &Program,
        class: ClassId,
        name: &str,
    ) -> Option<(ClassId, usize)> {
        let mut cid = class;
        loop {
            if let Some(slot) = self.class(cid).static_slot(name) {
                return Some((cid, slot));
            }
            cid = program.class(program.class_file(cid).super_name.as_deref()?)?;
        }
    }

    /// Resolves static-field entry `cp` of class `referrer`'s pool for
    /// `getstatic`/`putstatic`, and loads the class it names. The pool
    /// walk and the name lookups run once per linker and entry; later
    /// executions read the resolution back, as JDK 1.1's interpreter
    /// did by rewriting a resolved `getstatic` into `getstatic_quick`.
    /// The load check still runs on every execution, so a class's
    /// load trace lands at its first use. Returns the resolution and
    /// the instructions the class load emitted (0 once loaded).
    ///
    /// # Errors
    ///
    /// A pool entry that is not a field reference, or a field that no
    /// class in the chain declares; verified code has neither.
    #[inline]
    pub(crate) fn static_field(
        &mut self,
        program: &Program,
        referrer: ClassId,
        cp: CpIndex,
        heap: &mut Heap,
        sink: &mut dyn TraceSink,
    ) -> Result<(StaticRef, u64), VmError> {
        let resolved = self.static_refs[referrer.0 as usize]
            .get(usize::from(cp.0))
            .copied()
            .flatten();
        match resolved {
            Some(r) => Ok((r, self.ensure_loaded(r.class, program, heap, sink))),
            None => self.resolve_static_field(program, referrer, cp, heap, sink),
        }
    }

    /// [`Linker::static_field`]'s first execution of an entry: walks
    /// the pool and the superclass chain and keeps the resolution.
    #[cold]
    #[inline(never)]
    fn resolve_static_field(
        &mut self,
        program: &Program,
        referrer: ClassId,
        cp: CpIndex,
        heap: &mut Heap,
        sink: &mut dyn TraceSink,
    ) -> Result<(StaticRef, u64), VmError> {
        let (cname, fname) = program
            .class_file(referrer)
            .pool
            .field_ref(cp)
            .map_err(|e| VmError::Internal(e.to_string()))?;
        let class = program.class(cname).expect("verified class");
        let loaded = self.ensure_loaded(class, program, heap, sink);
        let (owner, slot) = self
            .resolve_static(program, class, fname)
            .ok_or_else(|| VmError::Internal(format!("static {cname}.{fname} missing")))?;
        let r = StaticRef {
            class,
            owner,
            slot: slot as u32,
        };
        let row = &mut self.static_refs[referrer.0 as usize];
        let at = usize::from(cp.0);
        if at >= row.len() {
            row.resize(at + 1, None);
        }
        row[at] = Some(r);
        Ok((r, loaded))
    }

    /// Simulated address of a static slot.
    pub fn static_slot_addr(&self, class: ClassId, slot: usize) -> Addr {
        self.class(class).static_addr + 4 * slot as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_bytecode::{ClassAsm, MethodAsm, Op};
    use jrt_trace::CountingSink;

    fn program() -> Program {
        let mut base = ClassAsm::new("Base");
        base.add_field("a");
        base.add_static_field("sb");
        let mut greet = MethodAsm::new_instance("greet", 0);
        greet.ret();
        base.add_method(greet);

        let mut derived = ClassAsm::with_super("Derived", "Base");
        derived.add_field("b");
        let mut greet2 = MethodAsm::new_instance("greet", 0);
        greet2.ret();
        derived.add_method(greet2);
        let mut other = MethodAsm::new_instance("other", 0);
        other.ret();
        derived.add_method(other);

        let mut main = ClassAsm::new("Main");
        let mut m = MethodAsm::new("main", 0);
        m.ret();
        main.add_method(m);

        Program::build(vec![base, derived, main], "Main", "main").unwrap()
    }

    #[test]
    fn loads_super_chain_and_flattens_fields() {
        let p = program();
        let mut linker = Linker::new(p.num_classes());
        let mut heap = Heap::new();
        let mut sink = CountingSink::new();
        let derived = p.class("Derived").unwrap();
        linker.ensure_loaded(derived, &p, &mut heap, &mut sink);

        assert!(linker.is_loaded(p.class("Base").unwrap()));
        let lc = linker.class(derived);
        assert_eq!(lc.field_names, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(lc.field_slot("a"), Some(0));
        assert_eq!(lc.field_slot("b"), Some(1));
        assert_eq!(lc.num_fields(), 2);
        assert!(sink.phase(Phase::ClassLoad) > 0);
        assert_eq!(linker.classes_loaded, 2);
    }

    #[test]
    fn vtable_overrides() {
        let p = program();
        let mut linker = Linker::new(p.num_classes());
        let mut heap = Heap::new();
        let mut sink = CountingSink::new();
        let base = p.class("Base").unwrap();
        let derived = p.class("Derived").unwrap();
        linker.ensure_loaded(derived, &p, &mut heap, &mut sink);

        let g = linker.class(derived).vtable_lookup("greet").unwrap();
        assert_eq!(g.class, derived, "override wins");
        let g0 = linker.class(base).vtable_lookup("greet").unwrap();
        assert_eq!(g0.class, base);
        assert!(linker.class(derived).vtable_lookup("other").is_some());
        assert!(linker.class(base).vtable_lookup("other").is_none());
    }

    #[test]
    fn statics_resolve_through_chain() {
        let p = program();
        let mut linker = Linker::new(p.num_classes());
        let mut heap = Heap::new();
        let mut sink = CountingSink::new();
        let derived = p.class("Derived").unwrap();
        linker.ensure_loaded(derived, &p, &mut heap, &mut sink);

        let (owner, slot) = linker.resolve_static(&p, derived, "sb").unwrap();
        assert_eq!(owner, p.class("Base").unwrap());
        linker.set_static(owner, slot, Value::Int(5));
        assert_eq!(linker.get_static(owner, slot), Value::Int(5));
        let addr = linker.static_slot_addr(owner, slot);
        assert_eq!(
            jrt_trace::Region::classify(addr),
            Some(jrt_trace::Region::VmData)
        );
    }

    /// `Base` declares the static `sb`; `User.touch` reads it through
    /// `Derived` and writes it through `Base`; `Other.touch` reads its
    /// own static `so`.
    fn static_users() -> Program {
        let mut base = ClassAsm::new("Base");
        base.add_static_field("sb");
        let derived = ClassAsm::with_super("Derived", "Base");

        let mut user = ClassAsm::new("User");
        let mut touch = MethodAsm::new("touch", 0);
        touch
            .getstatic("Derived", "sb")
            .putstatic("Base", "sb")
            .ret();
        user.add_method(touch);

        let mut other = ClassAsm::new("Other");
        other.add_static_field("so");
        let mut touch = MethodAsm::new("touch", 0);
        touch.getstatic("Other", "so").pop().ret();
        other.add_method(touch);

        let mut main = ClassAsm::new("Main");
        let mut m = MethodAsm::new("main", 0);
        m.ret();
        main.add_method(m);

        Program::build(vec![base, derived, user, other, main], "Main", "main").unwrap()
    }

    /// The pool entries of the static accesses in `class`'s first
    /// method, in code order.
    fn static_entries(p: &Program, class: ClassId) -> Vec<CpIndex> {
        let code = &p.class_file(class).methods[0].code;
        let mut entries = Vec::new();
        let mut pc = 0;
        while pc < code.len() {
            let (op, len) = Op::decode(code, pc).unwrap();
            if let Op::GetStatic(cp) | Op::PutStatic(cp) = op {
                entries.push(cp);
            }
            pc += len;
        }
        entries
    }

    #[test]
    fn static_fields_resolve_once_to_the_declaring_class() {
        let p = static_users();
        let id = |name| p.class(name).unwrap();
        let (base, derived, user, other) = (id("Base"), id("Derived"), id("User"), id("Other"));
        let [via_derived, via_base] = static_entries(&p, user)[..] else {
            panic!("User.touch makes two static accesses");
        };
        let mut linker = Linker::new(p.num_classes());
        let mut heap = Heap::new();
        let mut sink = CountingSink::new();
        let mut field = |linker: &mut Linker, class, cp| {
            linker
                .static_field(&p, class, cp, &mut heap, &mut sink)
                .unwrap()
        };

        // The first access through `Derived` loads `Base` and
        // `Derived`; later ones read the resolution and load nothing.
        let (sb, first_loaded) = field(&mut linker, user, via_derived);
        let want = StaticRef {
            class: derived,
            owner: base,
            slot: 0,
        };
        assert_eq!(sb, want);
        assert!(first_loaded > 0);
        assert_eq!(linker.classes_loaded, 2);
        for _ in 0..2 {
            assert_eq!(field(&mut linker, user, via_derived), (want, 0));
        }
        // `Base`'s own entry resolves to the same slot, first and later.
        let want = StaticRef {
            class: base,
            owner: base,
            slot: 0,
        };
        for _ in 0..2 {
            assert_eq!(field(&mut linker, user, via_base), (want, 0));
        }
        assert_eq!(linker.classes_loaded, 2);

        // A store through one entry is what a load through the other
        // reads.
        let slot = |r: StaticRef| (r.owner, r.slot as usize);
        let (owner, at) = slot(sb);
        linker.set_static(owner, at, Value::Int(7));
        let (owner, at) = slot(want);
        assert_eq!(linker.get_static(owner, at), Value::Int(7));
        linker.set_static(owner, at, Value::Int(9));
        let (owner, at) = slot(sb);
        assert_eq!(linker.get_static(owner, at), Value::Int(9));

        // Resolutions are kept per referring class: `Other`'s entry at
        // the index of `User`'s first names `Other.so`.
        let [so_entry] = static_entries(&p, other)[..] else {
            panic!("Other.touch makes one static access");
        };
        assert_eq!(so_entry, via_derived);
        let (so, loaded) = field(&mut linker, other, so_entry);
        assert_eq!(
            so,
            StaticRef {
                class: other,
                owner: other,
                slot: 0,
            }
        );
        assert!(loaded > 0);
        assert_eq!(
            sink.phase(Phase::ClassLoad),
            first_loaded + loaded,
            "a class-load trace at each first use only"
        );
    }

    #[test]
    fn loading_twice_is_idempotent() {
        let p = program();
        let mut linker = Linker::new(p.num_classes());
        let mut heap = Heap::new();
        let mut sink = CountingSink::new();
        let base = p.class("Base").unwrap();
        let first = linker.ensure_loaded(base, &p, &mut heap, &mut sink);
        let second = linker.ensure_loaded(base, &p, &mut heap, &mut sink);
        assert!(first > 0);
        assert_eq!(second, 0);
        assert_eq!(linker.classes_loaded, 1);
    }

    #[test]
    fn code_addresses_live_in_class_area() {
        let p = program();
        let mut linker = Linker::new(p.num_classes());
        let mut heap = Heap::new();
        let mut sink = CountingSink::new();
        let main = p.class("Main").unwrap();
        linker.ensure_loaded(main, &p, &mut heap, &mut sink);
        let addr = linker.code_addr(p.entry());
        assert_eq!(
            jrt_trace::Region::classify(addr),
            Some(jrt_trace::Region::ClassArea)
        );
    }
}
