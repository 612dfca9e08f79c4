//! The simulated Java heap: objects, arrays, and values.
//!
//! Every allocation is assigned a virtual address in the
//! [`Heap`](jrt_trace::Region::Heap) region of the simulated address
//! space, so that loads/stores emitted for field and array accesses
//! carry realistic addresses (object layout drives the D-cache
//! studies, Figures 3–8).
//!
//! Two layouts exist behind one handle table:
//!
//! * **Legacy** ([`GcConfig::Legacy`](crate::GcConfig)) — one
//!   bump-allocated space; addresses are never reused, handles freed
//!   by the mark-sweep collector are recycled.
//! * **Generational** ([`GcConfig::Generational`](crate::GcConfig)) —
//!   the heap region is split at `TENURED_BASE`: a small nursery
//!   bump-allocates below it and is evacuated into tenured space by
//!   copying minor collections; tenured space is compacted by copying
//!   major collections. Because all access goes through the handle
//!   table, moving an object is one address rewrite — field values
//!   (which hold handles, not addresses) never change, which is what
//!   keeps the cross-engine [`Observables`](crate::Observables)
//!   stable under any collection schedule. Generational mode never
//!   recycles handles, so a live object's slot index equals its
//!   allocation sequence number regardless of how many collections
//!   ran — the other half of that stability guarantee.
//!
//! The generational heap also maintains the **remembered set** here,
//! inside [`Heap::set_field`] / [`Heap::array_set`], rather than in
//! the bytecode layer: every mutation path (including the
//! `Sys.arraycopy` intrinsic's raw element stores) funnels through
//! these two methods, so a tenured→nursery edge can never be created
//! without being recorded. Write-*barrier* trace emission is a
//! separate, cost-model concern handled by the emitters.

use crate::config::GcConfig;
use jrt_bytecode::{ArrayKind, ClassId};
use jrt_trace::{layout, Addr};
use std::fmt;

/// First simulated address of tenured space in generational mode: the
/// 256 MiB heap region is split in half, nursery below, tenured
/// above, so an object's generation is decidable from its address
/// alone — no per-slot generation tag.
pub(crate) const TENURED_BASE: Addr = layout::HEAP_BASE + 0x800_0000;

/// Base of the card table in VM data: one byte per 2^[`CARD_SHIFT`]
/// bytes of heap (or static area), dirtied by the write barrier.
pub(crate) const CARD_BASE: Addr = layout::VM_DATA_BASE + 0x30_0000;

/// Log2 of the card size (512-byte cards, the HotSpot value).
pub(crate) const CARD_SHIFT: u32 = 9;

/// Simulated address of the card-table byte covering `addr` (a heap
/// field/element address or a static slot address — both lie above
/// the heap base). The write barrier dirties this byte on every
/// reference store.
pub(crate) fn card_addr(addr: Addr) -> Addr {
    CARD_BASE + (addr.saturating_sub(layout::HEAP_BASE) >> CARD_SHIFT)
}

/// Which collection the generational heap needs next, decided at
/// allocation time and consumed by the VM at the next bytecode
/// boundary (collections never run mid-bytecode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GcKind {
    /// Nursery evacuation driven by roots + remembered set.
    Minor,
    /// Full mark + copying compaction of tenured space.
    Major,
}

/// A reference to a heap object; `0` is reserved (null is represented
/// by [`Value::Null`]).
pub type Handle = u32;

/// A JVM value: our ISA is 32-bit-slot based, like the paper's
/// UltraSPARC-era JVMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Value {
    /// The null reference.
    #[default]
    Null,
    /// A 32-bit integer.
    Int(i32),
    /// An object or array reference.
    Ref(Handle),
}

impl Value {
    /// Extracts an int. [`Value::Null`] reads as 0: fields, statics,
    /// and locals start as the all-zeros word, exactly as in the JVM.
    ///
    /// # Panics
    ///
    /// Panics if the value is a reference (verified bytecode cannot
    /// trigger this; it indicates a VM bug).
    #[inline]
    pub fn as_int(self) -> i32 {
        match self {
            Value::Int(v) => v,
            Value::Null => 0,
            other => panic!("expected int, found {other:?}"),
        }
    }

    /// Extracts a reference handle; `None` for null.
    ///
    /// # Panics
    ///
    /// Panics if the value is an int.
    pub fn as_ref(self) -> Option<Handle> {
        match self {
            Value::Ref(h) => Some(h),
            Value::Null => None,
            other => panic!("expected reference, found {other:?}"),
        }
    }

    /// Encodes the value into a raw 32-bit slot (for array storage).
    pub fn to_raw(self) -> i32 {
        match self {
            Value::Null => 0,
            Value::Int(v) => v,
            Value::Ref(h) => h as i32,
        }
    }

    /// Decodes a raw slot as a reference (0 = null).
    pub fn ref_from_raw(raw: i32) -> Value {
        if raw == 0 {
            Value::Null
        } else {
            Value::Ref(raw as Handle)
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Ref(h) => write!(f, "@{h}"),
        }
    }
}

/// Heap errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The heap region of the address space is exhausted.
    OutOfMemory,
    /// A handle does not name a live allocation (VM bug or GC bug).
    BadHandle(Handle),
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: i32,
        /// The array length.
        len: u32,
    },
    /// Array allocation with negative length.
    NegativeArraySize(i32),
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfMemory => write!(f, "simulated heap exhausted"),
            HeapError::BadHandle(h) => write!(f, "dangling handle @{h}"),
            HeapError::IndexOutOfBounds { index, len } => {
                write!(f, "array index {index} out of bounds for length {len}")
            }
            HeapError::NegativeArraySize(n) => write!(f, "negative array size {n}"),
        }
    }
}

impl std::error::Error for HeapError {}

/// Object header bytes (class word + lock word), as in the thin-lock
/// design discussion.
pub const OBJECT_HEADER: u32 = 8;
/// Array header bytes (class word + lock word + length).
pub const ARRAY_HEADER: u32 = 12;

#[derive(Debug, Clone)]
enum Slot {
    Free,
    Object {
        class: ClassId,
        fields: Vec<Value>,
        addr: Addr,
        bytes: u32,
        marked: bool,
    },
    Array {
        kind: ArrayKind,
        data: Vec<i32>,
        addr: Addr,
        bytes: u32,
        marked: bool,
    },
}

/// Allocation statistics for Table 1 footprint accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes allocated over the whole run.
    pub allocated_bytes: u64,
    /// Currently live bytes.
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
    /// Objects allocated.
    pub objects: u64,
    /// Arrays allocated.
    pub arrays: u64,
}

/// One object relocation performed by a copying collection: the
/// handle is untouched, only its address changed. The collector emits
/// the copy's loads/stores from this record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ObjectMove {
    /// The moved object's (stable) handle.
    pub handle: Handle,
    /// Address before the move.
    pub from: Addr,
    /// Address after the move.
    pub to: Addr,
    /// Payload size in bytes (unaligned).
    pub bytes: u32,
}

/// SplitMix64-style fold shared by [`Heap::digest`] and
/// [`Heap::reachable_digest`].
fn fold64(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-collection accounting of the generational spaces, surfaced to
/// the `gc_study` report (survival rates need the allocation split).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Bytes ever bump-allocated in the nursery.
    pub nursery_allocated_bytes: u64,
    /// Bytes promoted out of the nursery by minor collections.
    pub promoted_bytes: u64,
    /// Bytes allocated directly in tenured space (nursery-overflow
    /// pretenuring).
    pub pretenured_bytes: u64,
}

/// Generational-mode state: space cursors, collection triggers, and
/// the remembered set.
#[derive(Debug)]
struct GenState {
    /// One past the last nursery byte (`HEAP_BASE + nursery_bytes`).
    nursery_limit: Addr,
    /// Tenured-allocation budget between major collections.
    tenured_budget: u64,
    nursery_cursor: Addr,
    tenured_cursor: Addr,
    /// Tenured bytes (direct + promoted) since the last major.
    tenured_since_major: u64,
    stats: GenStats,
    /// Tenured containers that may hold nursery references, in first-
    /// insertion order (deterministic minor-collection root order).
    remset: Vec<Handle>,
    /// Membership bitmap for `remset`, indexed by handle.
    in_remset: Vec<bool>,
    /// Collection requested by the allocator, consumed by the VM at
    /// the next bytecode boundary.
    pending: Option<GcKind>,
    /// Harness self-test hook: when `Some(n)`, the `n`-th
    /// remembered-set enrollment (0-based) is silently dropped — the
    /// seeded "missed write barrier" the must-fail CI job proves the
    /// GC differential detects.
    drop_barrier: Option<u64>,
}

impl GenState {
    fn new(nursery_bytes: u64, tenured_bytes: u64) -> Self {
        GenState {
            nursery_limit: layout::HEAP_BASE + nursery_bytes.min(TENURED_BASE - layout::HEAP_BASE),
            tenured_budget: tenured_bytes,
            nursery_cursor: layout::HEAP_BASE,
            tenured_cursor: TENURED_BASE,
            tenured_since_major: 0,
            stats: GenStats::default(),
            remset: Vec::new(),
            in_remset: Vec::new(),
            pending: None,
            drop_barrier: None,
        }
    }
}

/// The simulated heap.
#[derive(Debug)]
pub struct Heap {
    slots: Vec<Slot>,
    free: Vec<Handle>,
    cursor: Addr,
    stats: HeapStats,
    allocated_since_gc: u64,
    gen: Option<GenState>,
}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

impl Heap {
    /// Creates an empty heap in the legacy single-space layout.
    pub fn new() -> Self {
        Self::with_config(GcConfig::Legacy)
    }

    /// Creates an empty heap laid out for the given collector.
    pub fn with_config(gc: GcConfig) -> Self {
        Heap {
            slots: vec![Slot::Free], // slot 0 unused: handle 0 reserved
            free: Vec::new(),
            cursor: layout::HEAP_BASE,
            stats: HeapStats::default(),
            allocated_since_gc: 0,
            gen: match gc {
                GcConfig::Legacy => None,
                GcConfig::Generational {
                    nursery_bytes,
                    tenured_bytes,
                } => Some(GenState::new(nursery_bytes, tenured_bytes)),
            },
        }
    }

    /// Clears the heap back to its initial state, retaining the slot
    /// table's allocation (arena reuse for pooled VMs: a reset heap
    /// costs no reallocation on the next run's allocations). In
    /// generational mode this also resets both space cursors, the
    /// remembered set, and any pending collection request, so a
    /// pooled VM's next job starts from an empty nursery.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.slots.push(Slot::Free); // slot 0 unused: handle 0 reserved
        self.free.clear();
        self.cursor = layout::HEAP_BASE;
        self.stats = HeapStats::default();
        self.allocated_since_gc = 0;
        if let Some(g) = self.gen.as_mut() {
            g.nursery_cursor = layout::HEAP_BASE;
            g.tenured_cursor = TENURED_BASE;
            g.tenured_since_major = 0;
            g.stats = GenStats::default();
            g.remset.clear();
            g.in_remset.clear();
            g.pending = None;
            g.drop_barrier = None;
        }
    }

    /// Harness self-test hook: arms the collector to silently drop
    /// the `n`-th remembered-set enrollment (0-based) — a seeded
    /// "missed write barrier". The GC differential fuzzer's must-fail
    /// CI job uses this to prove a single lost barrier is detected as
    /// an observable divergence. No-op on a legacy heap.
    pub fn sabotage_drop_barrier(&mut self, n: u64) {
        if let Some(g) = self.gen.as_mut() {
            g.drop_barrier = Some(n);
        }
    }

    fn take_handle(&mut self) -> Handle {
        // Generational mode never recycles handles: a live object's
        // slot index is its allocation sequence number on every
        // collection schedule, which keeps the reachable-heap digest
        // GC-invariant.
        if self.gen.is_none() {
            if let Some(h) = self.free.pop() {
                return h;
            }
        }
        self.slots.push(Slot::Free);
        (self.slots.len() - 1) as Handle
    }

    fn bump(&mut self, bytes: u32) -> Result<Addr, HeapError> {
        let aligned = (u64::from(bytes) + 7) & !7;
        let addr = if let Some(g) = self.gen.as_mut() {
            if g.nursery_cursor + aligned <= g.nursery_limit {
                let a = g.nursery_cursor;
                g.nursery_cursor += aligned;
                g.stats.nursery_allocated_bytes += aligned;
                a
            } else {
                // Nursery overflow: pretenure this allocation and ask
                // for a minor collection at the next bytecode
                // boundary (collections never run mid-bytecode).
                if g.tenured_cursor + aligned > layout::HEAP_END {
                    return Err(HeapError::OutOfMemory);
                }
                let a = g.tenured_cursor;
                g.tenured_cursor += aligned;
                g.tenured_since_major += aligned;
                g.stats.pretenured_bytes += aligned;
                if g.tenured_since_major > g.tenured_budget {
                    g.pending = Some(GcKind::Major);
                } else if g.pending.is_none() {
                    g.pending = Some(GcKind::Minor);
                }
                a
            }
        } else {
            let a = self.cursor;
            if a + aligned > layout::HEAP_END {
                return Err(HeapError::OutOfMemory);
            }
            self.cursor += aligned;
            a
        };
        self.stats.allocated_bytes += aligned;
        self.stats.live_bytes += aligned;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        self.allocated_since_gc += aligned;
        Ok(addr)
    }

    /// Allocates an object with `nfields` fields (all initialized to
    /// [`Value::Null`]-equivalent zero of their kind: `Null`).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfMemory`] when the heap region is
    /// exhausted.
    pub fn alloc_object(&mut self, class: ClassId, nfields: usize) -> Result<Handle, HeapError> {
        let bytes = OBJECT_HEADER + 4 * nfields as u32;
        let addr = self.bump(bytes)?;
        let h = self.take_handle();
        self.slots[h as usize] = Slot::Object {
            class,
            fields: vec![Value::Null; nfields],
            addr,
            bytes,
            marked: false,
        };
        self.stats.objects += 1;
        Ok(h)
    }

    /// Allocates an array.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NegativeArraySize`] for a negative length
    /// or [`HeapError::OutOfMemory`] when the region is exhausted.
    pub fn alloc_array(&mut self, kind: ArrayKind, len: i32) -> Result<Handle, HeapError> {
        if len < 0 {
            return Err(HeapError::NegativeArraySize(len));
        }
        let bytes = ARRAY_HEADER + kind.elem_size() * len as u32;
        let addr = self.bump(bytes)?;
        let h = self.take_handle();
        self.slots[h as usize] = Slot::Array {
            kind,
            data: vec![0; len as usize],
            addr,
            bytes,
            marked: false,
        };
        self.stats.arrays += 1;
        Ok(h)
    }

    fn object(&self, h: Handle) -> Result<(&ClassId, &Vec<Value>, Addr), HeapError> {
        match self.slots.get(h as usize) {
            Some(Slot::Object {
                class,
                fields,
                addr,
                ..
            }) => Ok((class, fields, *addr)),
            _ => Err(HeapError::BadHandle(h)),
        }
    }

    /// Class of the object behind `h`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadHandle`] if `h` is not a live object.
    pub fn class_of(&self, h: Handle) -> Result<ClassId, HeapError> {
        self.object(h).map(|(c, _, _)| *c)
    }

    /// Reads field `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadHandle`] for dead handles or arrays.
    pub fn get_field(&self, h: Handle, idx: usize) -> Result<Value, HeapError> {
        let (_, fields, _) = self.object(h)?;
        fields.get(idx).copied().ok_or(HeapError::BadHandle(h))
    }

    /// Writes field `idx`. In generational mode a stored reference
    /// from a tenured object to a nursery object enrolls the
    /// container in the remembered set — this is the single funnel
    /// for object-field mutation, so the remset cannot miss an edge.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadHandle`] for dead handles or arrays.
    pub fn set_field(&mut self, h: Handle, idx: usize, v: Value) -> Result<(), HeapError> {
        match self.slots.get_mut(h as usize) {
            Some(Slot::Object { fields, .. }) if idx < fields.len() => {
                fields[idx] = v;
                if let Value::Ref(target) = v {
                    self.remember_if_old_to_young(h, target);
                }
                Ok(())
            }
            _ => Err(HeapError::BadHandle(h)),
        }
    }

    /// Simulated address of field `idx` of object `h`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadHandle`] for dead handles or arrays.
    pub fn field_addr(&self, h: Handle, idx: usize) -> Result<Addr, HeapError> {
        let (_, _, addr) = self.object(h)?;
        Ok(addr + u64::from(OBJECT_HEADER) + 4 * idx as u64)
    }

    /// Simulated address of the object header (lock word), used by
    /// monitor operations.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadHandle`] for dead handles.
    pub fn header_addr(&self, h: Handle) -> Result<Addr, HeapError> {
        match self.slots.get(h as usize) {
            Some(Slot::Object { addr, .. }) | Some(Slot::Array { addr, .. }) => Ok(*addr),
            _ => Err(HeapError::BadHandle(h)),
        }
    }

    /// Array length.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadHandle`] for dead handles or objects.
    pub fn array_len(&self, h: Handle) -> Result<u32, HeapError> {
        match self.slots.get(h as usize) {
            Some(Slot::Array { data, .. }) => Ok(data.len() as u32),
            _ => Err(HeapError::BadHandle(h)),
        }
    }

    /// Reads array element `idx` as a raw slot.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::IndexOutOfBounds`] or
    /// [`HeapError::BadHandle`].
    pub fn array_get(&self, h: Handle, idx: i32) -> Result<i32, HeapError> {
        match self.slots.get(h as usize) {
            Some(Slot::Array { data, .. }) => {
                if idx < 0 || idx as usize >= data.len() {
                    Err(HeapError::IndexOutOfBounds {
                        index: idx,
                        len: data.len() as u32,
                    })
                } else {
                    Ok(data[idx as usize])
                }
            }
            _ => Err(HeapError::BadHandle(h)),
        }
    }

    /// Writes array element `idx`. Like [`Heap::set_field`], a stored
    /// reference into a tenured ref-array enrolls the array in the
    /// remembered set — `Sys.arraycopy` funnels through here too, so
    /// intrinsic bulk copies are covered without a bytecode-level
    /// barrier.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::IndexOutOfBounds`] or
    /// [`HeapError::BadHandle`].
    pub fn array_set(&mut self, h: Handle, idx: i32, raw: i32) -> Result<(), HeapError> {
        let mut stored_ref = None;
        match self.slots.get_mut(h as usize) {
            Some(Slot::Array { kind, data, .. }) => {
                if idx < 0 || idx as usize >= data.len() {
                    return Err(HeapError::IndexOutOfBounds {
                        index: idx,
                        len: data.len() as u32,
                    });
                }
                data[idx as usize] = raw;
                if matches!(kind, ArrayKind::Ref) && raw != 0 {
                    stored_ref = Some(raw as Handle);
                }
            }
            _ => return Err(HeapError::BadHandle(h)),
        }
        if let Some(target) = stored_ref {
            self.remember_if_old_to_young(h, target);
        }
        Ok(())
    }

    /// Simulated address of array element `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadHandle`] for dead handles or objects.
    pub fn elem_addr(&self, h: Handle, idx: i32) -> Result<Addr, HeapError> {
        match self.slots.get(h as usize) {
            Some(Slot::Array { kind, addr, .. }) => Ok(*addr
                + u64::from(ARRAY_HEADER)
                + u64::from(kind.elem_size()) * idx.max(0) as u64),
            _ => Err(HeapError::BadHandle(h)),
        }
    }

    /// Allocation statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Bytes allocated since the last collection (GC trigger input).
    pub fn allocated_since_gc(&self) -> u64 {
        self.allocated_since_gc
    }

    // ---- Generational support (used by crate::gc and the VM) ---------------

    /// Whether this heap runs the generational layout.
    pub fn is_generational(&self) -> bool {
        self.gen.is_some()
    }

    /// Generational allocation statistics (`None` in legacy mode).
    pub fn gen_stats(&self) -> Option<GenStats> {
        self.gen.as_ref().map(|g| g.stats)
    }

    /// The collection the allocator requested, if any, clearing the
    /// request. The VM polls this at bytecode boundaries.
    pub(crate) fn take_gc_pending(&mut self) -> Option<GcKind> {
        self.gen.as_mut().and_then(|g| g.pending.take())
    }

    /// Whether `h` is a live allocation in the nursery. Public so the
    /// GC-equivalence test layer can cross-check the remembered set
    /// against a full-heap scan.
    pub fn is_nursery(&self, h: Handle) -> bool {
        self.gen.is_some()
            && matches!(
                self.slots.get(h as usize),
                Some(Slot::Object { addr, .. } | Slot::Array { addr, .. }) if *addr < TENURED_BASE
            )
    }

    /// References held by `h` (empty for dead handles and non-ref
    /// arrays), without touching marks. Public for the GC-equivalence
    /// test layer.
    pub fn refs_in(&self, h: Handle) -> Vec<Handle> {
        match self.slots.get(h as usize) {
            Some(Slot::Object { fields, .. }) => fields
                .iter()
                .filter_map(|v| match v {
                    Value::Ref(r) => Some(*r),
                    _ => None,
                })
                .collect(),
            Some(Slot::Array {
                kind: ArrayKind::Ref,
                data,
                ..
            }) => data
                .iter()
                .filter(|&&r| r != 0)
                .map(|&r| r as Handle)
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The remembered set: tenured containers that may hold nursery
    /// references, in first-insertion order. Public for the
    /// GC-equivalence test layer.
    pub fn remset(&self) -> &[Handle] {
        self.gen.as_ref().map_or(&[], |g| &g.remset)
    }

    /// Enrolls `container` in the remembered set when the edge
    /// `container → target` crosses tenured→nursery. Conservative:
    /// entries are never removed by later overwrites, only cleared
    /// when a collection empties the nursery.
    fn remember_if_old_to_young(&mut self, container: Handle, target: Handle) {
        if self.gen.is_none() || self.is_nursery(container) || !self.is_nursery(target) {
            return;
        }
        let g = self.gen.as_mut().expect("generational");
        let i = container as usize;
        if g.in_remset.len() <= i {
            g.in_remset.resize(i + 1, false);
        }
        if !g.in_remset[i] {
            if let Some(n) = g.drop_barrier.as_mut() {
                if *n == 0 {
                    g.drop_barrier = None;
                    return; // the seeded miss: skip exactly this enrollment
                }
                *n -= 1;
            }
            g.in_remset[i] = true;
            g.remset.push(container);
        }
    }

    /// Evacuates the nursery after a minor-collection mark: every
    /// marked nursery object is promoted (its address reassigned into
    /// tenured space — the handle, and therefore every field value
    /// naming it, is untouched), every unmarked one is freed without
    /// recycling its handle. Leaves the nursery empty and clears the
    /// remembered set. A promotion that pushes tenured allocation
    /// past its budget requests a major collection.
    ///
    /// Returns `(promotions, freed handles, freed bytes)`.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfMemory`] if tenured space cannot absorb the
    /// survivors.
    pub(crate) fn promote_survivors(&mut self) -> Result<(Vec<ObjectMove>, u64, u64), HeapError> {
        let g = self.gen.as_mut().expect("generational");
        let mut moves = Vec::new();
        let mut freed = 0u64;
        let mut freed_bytes = 0u64;
        for (i, s) in self.slots.iter_mut().enumerate().skip(1) {
            let (addr, bytes, marked) = match s {
                Slot::Object {
                    addr,
                    bytes,
                    marked,
                    ..
                } => (addr, *bytes, *marked),
                Slot::Array {
                    addr,
                    bytes,
                    marked,
                    ..
                } => (addr, *bytes, *marked),
                Slot::Free => continue,
            };
            if *addr >= TENURED_BASE {
                continue;
            }
            let aligned = (u64::from(bytes) + 7) & !7;
            if marked {
                if g.tenured_cursor + aligned > layout::HEAP_END {
                    return Err(HeapError::OutOfMemory);
                }
                moves.push(ObjectMove {
                    handle: i as Handle,
                    from: *addr,
                    to: g.tenured_cursor,
                    bytes,
                });
                *addr = g.tenured_cursor;
                g.tenured_cursor += aligned;
                g.tenured_since_major += aligned;
                g.stats.promoted_bytes += aligned;
            } else {
                *s = Slot::Free;
                freed += 1;
                freed_bytes += aligned;
            }
        }
        self.stats.live_bytes -= freed_bytes;
        g.nursery_cursor = layout::HEAP_BASE;
        g.remset.clear();
        g.in_remset.clear();
        if g.tenured_since_major > g.tenured_budget {
            g.pending = Some(GcKind::Major);
        }
        Ok((moves, freed, freed_bytes))
    }

    /// Copying compaction after a major-collection mark: unmarked
    /// slots (both generations) are freed, marked ones are assigned
    /// consecutive tenured addresses in slot order. Leaves the
    /// nursery empty, the remembered set clear, and the tenured
    /// budget reset.
    ///
    /// Returns `(moves of surviving objects, freed handles, freed
    /// bytes)`; every survivor appears in the move list (copying
    /// compaction copies everything), including the rare one whose
    /// address is unchanged.
    pub(crate) fn compact_all(&mut self) -> (Vec<ObjectMove>, u64, u64) {
        let g = self.gen.as_mut().expect("generational");
        let mut moves = Vec::new();
        let mut freed = 0u64;
        let mut freed_bytes = 0u64;
        let mut cursor = TENURED_BASE;
        for (i, s) in self.slots.iter_mut().enumerate().skip(1) {
            let (addr, bytes, marked) = match s {
                Slot::Object {
                    addr,
                    bytes,
                    marked,
                    ..
                } => (addr, *bytes, *marked),
                Slot::Array {
                    addr,
                    bytes,
                    marked,
                    ..
                } => (addr, *bytes, *marked),
                Slot::Free => continue,
            };
            let aligned = (u64::from(bytes) + 7) & !7;
            if marked {
                moves.push(ObjectMove {
                    handle: i as Handle,
                    from: *addr,
                    to: cursor,
                    bytes,
                });
                *addr = cursor;
                cursor += aligned;
            } else {
                *s = Slot::Free;
                freed += 1;
                freed_bytes += aligned;
            }
        }
        self.stats.live_bytes -= freed_bytes;
        g.tenured_cursor = cursor;
        g.nursery_cursor = layout::HEAP_BASE;
        g.tenured_since_major = 0;
        g.remset.clear();
        g.in_remset.clear();
        g.pending = None;
        self.allocated_since_gc = 0;
        (moves, freed, freed_bytes)
    }

    /// Digest and count of the heap *reachable from `roots`*, in the
    /// same fold as [`Heap::digest`]. Garbage — swept or not — never
    /// contributes, and neither do addresses, so the result is
    /// identical across collector configurations and collection
    /// schedules: the GC-equivalence tests compare exactly this.
    pub fn reachable_digest<I: IntoIterator<Item = Handle>>(&self, roots: I) -> (u64, usize) {
        let mut reach = vec![false; self.slots.len()];
        let mut work: Vec<Handle> = roots.into_iter().collect();
        while let Some(h) = work.pop() {
            let i = h as usize;
            if i >= reach.len() || reach[i] || matches!(self.slots[i], Slot::Free) {
                continue;
            }
            reach[i] = true;
            work.extend(self.refs_in(h));
        }
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let mut count = 0usize;
        for (i, s) in self.slots.iter().enumerate() {
            if !reach[i] {
                continue;
            }
            count += 1;
            match s {
                Slot::Free => unreachable!("free slots are never reachable"),
                Slot::Object { class, fields, .. } => {
                    digest = fold64(digest, 1 ^ ((i as u64) << 8));
                    digest = fold64(digest, u64::from(class.0));
                    for f in fields {
                        digest = fold64(digest, f.to_raw() as u32 as u64);
                    }
                }
                Slot::Array { kind, data, .. } => {
                    digest = fold64(digest, 2 ^ ((i as u64) << 8));
                    digest = fold64(digest, *kind as u64);
                    for v in data {
                        digest = fold64(digest, *v as u32 as u64);
                    }
                }
            }
        }
        (digest, count)
    }

    // ---- GC support (used by crate::gc) ------------------------------------

    pub(crate) fn clear_marks(&mut self) {
        for s in &mut self.slots {
            match s {
                Slot::Object { marked, .. } | Slot::Array { marked, .. } => *marked = false,
                Slot::Free => {}
            }
        }
    }

    /// Marks `h`; returns the references it holds (for the mark
    /// worklist) the first time it is marked, `None` if already marked
    /// or dead.
    pub(crate) fn mark(&mut self, h: Handle) -> Option<Vec<Handle>> {
        match self.slots.get_mut(h as usize) {
            Some(Slot::Object { fields, marked, .. }) => {
                if *marked {
                    return None;
                }
                *marked = true;
                Some(
                    fields
                        .iter()
                        .filter_map(|v| match v {
                            Value::Ref(r) => Some(*r),
                            _ => None,
                        })
                        .collect(),
                )
            }
            Some(Slot::Array {
                kind: ArrayKind::Ref,
                data,
                marked,
                ..
            }) => {
                if *marked {
                    return None;
                }
                *marked = true;
                Some(
                    data.iter()
                        .filter(|&&r| r != 0)
                        .map(|&r| r as Handle)
                        .collect(),
                )
            }
            Some(Slot::Array { marked, .. }) => {
                if *marked {
                    return None;
                }
                *marked = true;
                Some(Vec::new())
            }
            _ => None,
        }
    }

    /// Sweeps unmarked slots; returns (freed handles, freed bytes).
    pub(crate) fn sweep(&mut self) -> (Vec<Handle>, u64) {
        let mut freed = Vec::new();
        let mut bytes = 0u64;
        for (i, s) in self.slots.iter_mut().enumerate().skip(1) {
            let dead_bytes = match s {
                Slot::Object {
                    marked: false,
                    bytes,
                    ..
                }
                | Slot::Array {
                    marked: false,
                    bytes,
                    ..
                } => Some(u64::from(*bytes)),
                _ => None,
            };
            if let Some(b) = dead_bytes {
                *s = Slot::Free;
                freed.push(i as Handle);
                bytes += (b + 7) & !7;
            }
        }
        self.stats.live_bytes -= bytes;
        if self.gen.is_none() {
            // Only legacy mode recycles handles; see `take_handle`.
            self.free.extend(freed.iter().copied());
        }
        self.allocated_since_gc = 0;
        (freed, bytes)
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s, Slot::Free))
            .count()
    }

    /// Deterministic 64-bit digest of the live heap: slot index, slot
    /// kind, class / element kind, and every field and element value
    /// are folded through a SplitMix64-style finalizer. Engines that
    /// performed the same allocations and stores digest identically,
    /// so the differential fuzzer can compare final heap states
    /// without walking object graphs.
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for (i, s) in self.slots.iter().enumerate() {
            match s {
                Slot::Free => {}
                Slot::Object { class, fields, .. } => {
                    h = fold64(h, 1 ^ ((i as u64) << 8));
                    h = fold64(h, u64::from(class.0));
                    for f in fields {
                        h = fold64(h, f.to_raw() as u32 as u64);
                    }
                }
                Slot::Array { kind, data, .. } => {
                    h = fold64(h, 2 ^ ((i as u64) << 8));
                    h = fold64(h, *kind as u64);
                    for v in data {
                        h = fold64(h, *v as u32 as u64);
                    }
                }
            }
        }
        h
    }

    /// Iterates over live handles and their header addresses (the GC
    /// trace generator visits these).
    pub(crate) fn live_handles(&self) -> Vec<(Handle, Addr)> {
        self.slots
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(i, s)| match s {
                Slot::Object { addr, .. } | Slot::Array { addr, .. } => Some((i as Handle, *addr)),
                Slot::Free => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_roundtrip() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId(3), 2).unwrap();
        assert_eq!(h.class_of(o).unwrap(), ClassId(3));
        h.set_field(o, 1, Value::Int(42)).unwrap();
        assert_eq!(h.get_field(o, 1).unwrap(), Value::Int(42));
        assert_eq!(h.get_field(o, 0).unwrap(), Value::Null);
        assert!(h.get_field(o, 2).is_err());
    }

    #[test]
    fn array_roundtrip_and_bounds() {
        let mut h = Heap::new();
        let a = h.alloc_array(ArrayKind::Int, 3).unwrap();
        assert_eq!(h.array_len(a).unwrap(), 3);
        h.array_set(a, 2, 7).unwrap();
        assert_eq!(h.array_get(a, 2).unwrap(), 7);
        assert!(matches!(
            h.array_get(a, 3),
            Err(HeapError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            h.array_get(a, -1),
            Err(HeapError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            h.alloc_array(ArrayKind::Int, -5),
            Err(HeapError::NegativeArraySize(-5))
        ));
    }

    #[test]
    fn addresses_live_in_heap_region() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId(0), 1).unwrap();
        let a = h.alloc_array(ArrayKind::Char, 10).unwrap();
        for addr in [
            h.field_addr(o, 0).unwrap(),
            h.header_addr(o).unwrap(),
            h.elem_addr(a, 9).unwrap(),
        ] {
            assert_eq!(
                jrt_trace::Region::classify(addr),
                Some(jrt_trace::Region::Heap)
            );
        }
        // char elements are 2 bytes apart
        assert_eq!(h.elem_addr(a, 1).unwrap() - h.elem_addr(a, 0).unwrap(), 2);
    }

    #[test]
    fn stats_track_peak() {
        let mut h = Heap::new();
        h.alloc_object(ClassId(0), 4).unwrap();
        let s = h.stats();
        assert_eq!(s.objects, 1);
        assert!(s.peak_bytes >= 24);
        assert_eq!(s.live_bytes, s.peak_bytes);
    }

    #[test]
    fn mark_sweep_reclaims_unreachable() {
        let mut h = Heap::new();
        let keep = h.alloc_object(ClassId(0), 1).unwrap();
        let child = h.alloc_object(ClassId(0), 0).unwrap();
        let _dead = h.alloc_object(ClassId(0), 0).unwrap();
        h.set_field(keep, 0, Value::Ref(child)).unwrap();

        h.clear_marks();
        let mut work = vec![keep];
        while let Some(x) = work.pop() {
            if let Some(children) = h.mark(x) {
                work.extend(children);
            }
        }
        let (freed, bytes) = h.sweep();
        assert_eq!(freed.len(), 1);
        assert!(bytes >= 8);
        assert!(h.get_field(keep, 0).is_ok());
        assert_eq!(h.live_count(), 2);
        // Freed handle is reused.
        let again = h.alloc_object(ClassId(0), 0).unwrap();
        assert_eq!(again, freed[0]);
    }

    #[test]
    fn value_raw_roundtrip() {
        assert_eq!(Value::ref_from_raw(Value::Null.to_raw()), Value::Null);
        assert_eq!(Value::ref_from_raw(Value::Ref(7).to_raw()), Value::Ref(7));
        assert_eq!(Value::Int(-3).to_raw(), -3);
    }

    fn tiny_gen_heap() -> Heap {
        Heap::with_config(GcConfig::Generational {
            nursery_bytes: 64,
            tenured_bytes: 1 << 20,
        })
    }

    #[test]
    fn nursery_overflow_pretenures_and_requests_minor() {
        let mut h = tiny_gen_heap();
        let a = h.alloc_object(ClassId(0), 4).unwrap(); // 24 bytes
        let b = h.alloc_object(ClassId(0), 4).unwrap();
        assert!(h.is_nursery(a) && h.is_nursery(b));
        assert!(h.take_gc_pending().is_none());
        // Third allocation (24 bytes) does not fit in the 64-byte
        // nursery: pretenured, minor collection requested.
        let c = h.alloc_object(ClassId(0), 4).unwrap();
        assert!(!h.is_nursery(c));
        assert!(h.header_addr(c).unwrap() >= TENURED_BASE);
        assert_eq!(h.take_gc_pending(), Some(GcKind::Minor));
        assert!(h.take_gc_pending().is_none(), "request is consumed");
        let stats = h.gen_stats().unwrap();
        assert!(stats.nursery_allocated_bytes >= 48);
        assert!(stats.pretenured_bytes >= 24);
    }

    #[test]
    fn remset_tracks_old_to_young_edges_only() {
        let mut h = tiny_gen_heap();
        let young1 = h.alloc_object(ClassId(0), 1).unwrap();
        let young2 = h.alloc_object(ClassId(0), 1).unwrap();
        // 12 fields = 56 bytes: too big for what's left of the
        // 64-byte nursery, so these pretenure into tenured space.
        let old = h.alloc_object(ClassId(0), 12).unwrap();
        assert!(!h.is_nursery(old));
        // young→young: no remset entry.
        h.set_field(young1, 0, Value::Ref(young2)).unwrap();
        assert!(h.remset().is_empty());
        // old→young: remembered once, even if stored twice.
        h.set_field(old, 0, Value::Ref(young1)).unwrap();
        h.set_field(old, 1, Value::Ref(young2)).unwrap();
        assert_eq!(h.remset(), &[old]);
        // old→old: no entry (young1 still young here, old is).
        let old2 = h.alloc_object(ClassId(0), 12).unwrap();
        assert!(!h.is_nursery(old2));
        h.set_field(old2, 0, Value::Ref(old)).unwrap();
        assert_eq!(h.remset(), &[old]);
    }

    #[test]
    fn ref_array_stores_enroll_in_remset() {
        let mut h = tiny_gen_heap();
        let young = h.alloc_object(ClassId(0), 0).unwrap();
        // 20-element ref array exceeds the 64-byte nursery: tenured.
        let arr = h.alloc_array(ArrayKind::Ref, 20).unwrap();
        assert!(!h.is_nursery(arr));
        h.array_set(arr, 3, Value::Ref(young).to_raw()).unwrap();
        assert_eq!(h.remset(), &[arr]);
        // Int-array stores never enroll.
        let mut h2 = tiny_gen_heap();
        let iarr = h2.alloc_array(ArrayKind::Int, 20).unwrap();
        h2.array_set(iarr, 0, 42).unwrap();
        assert!(h2.remset().is_empty());
    }

    #[test]
    fn promotion_moves_survivors_and_keeps_handles() {
        let mut h = tiny_gen_heap();
        let keep = h.alloc_object(ClassId(3), 2).unwrap();
        let dead = h.alloc_object(ClassId(0), 1).unwrap();
        h.set_field(keep, 0, Value::Int(77)).unwrap();
        let live_before = h.stats().live_bytes;

        h.clear_marks();
        assert!(h.mark(keep).is_some());
        let (moves, freed, freed_bytes) = h.promote_survivors().unwrap();
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].handle, keep);
        assert!(moves[0].from < TENURED_BASE && moves[0].to >= TENURED_BASE);
        assert_eq!(freed, 1);
        assert!(freed_bytes >= 8);
        assert_eq!(h.stats().live_bytes, live_before - freed_bytes);
        // The handle still works and field values survived the move.
        assert_eq!(h.class_of(keep).unwrap(), ClassId(3));
        assert_eq!(h.get_field(keep, 0).unwrap(), Value::Int(77));
        assert!(h.get_field(dead, 0).is_err(), "dead handle not revived");
        assert!(!h.is_nursery(keep));
        // The nursery is empty again, and the dead handle is NOT
        // recycled: the next allocation gets a fresh slot index.
        let next = h.alloc_object(ClassId(0), 0).unwrap();
        assert!(h.is_nursery(next));
        assert!(next > dead, "generational mode never reuses handles");
    }

    #[test]
    fn compaction_repacks_tenured_space() {
        let mut h = tiny_gen_heap();
        // Three pretenured arrays; free the middle one.
        let a = h.alloc_array(ArrayKind::Int, 30).unwrap();
        let b = h.alloc_array(ArrayKind::Int, 30).unwrap();
        let c = h.alloc_array(ArrayKind::Int, 30).unwrap();
        assert!(!h.is_nursery(a) && !h.is_nursery(b) && !h.is_nursery(c));
        h.array_set(c, 7, 123).unwrap();

        h.clear_marks();
        h.mark(a);
        h.mark(c);
        let (moves, freed, _) = h.compact_all();
        assert_eq!(freed, 1);
        assert_eq!(moves.len(), 2);
        // Survivors are packed from the tenured base in slot order.
        assert_eq!(h.header_addr(a).unwrap(), TENURED_BASE);
        let a_aligned = (u64::from(ARRAY_HEADER + 4 * 30) + 7) & !7;
        assert_eq!(h.header_addr(c).unwrap(), TENURED_BASE + a_aligned);
        assert_eq!(h.array_get(c, 7).unwrap(), 123);
        assert!(h.array_get(b, 0).is_err());
    }

    #[test]
    fn reachable_digest_is_gc_schedule_invariant() {
        // Same program of allocations/stores on a legacy heap and on
        // a generational heap that promotes mid-way: the reachable
        // digest and count must agree, even though the generational
        // heap moved objects and swept garbage.
        let build = |h: &mut Heap| {
            let root = h.alloc_object(ClassId(1), 2).unwrap();
            let child = h.alloc_object(ClassId(2), 1).unwrap();
            let _garbage = h.alloc_array(ArrayKind::Int, 4).unwrap();
            h.set_field(root, 0, Value::Ref(child)).unwrap();
            h.set_field(child, 0, Value::Int(9)).unwrap();
            root
        };
        let mut legacy = Heap::new();
        let r1 = build(&mut legacy);

        let mut gener = tiny_gen_heap();
        let r2 = build(&mut gener);
        assert_eq!(r1, r2, "monotonic handles agree across layouts");
        // Collect: mark reachable, evacuate.
        gener.clear_marks();
        let mut work = vec![r2];
        while let Some(x) = work.pop() {
            if gener.is_nursery(x) {
                if let Some(children) = gener.mark(x) {
                    work.extend(children);
                }
            }
        }
        gener.promote_survivors().unwrap();

        assert_eq!(legacy.reachable_digest([r1]), gener.reachable_digest([r2]));
        assert_eq!(legacy.reachable_digest([r1]).1, 2);
        // The full digest, by contrast, sees the swept garbage slot.
        assert_ne!(legacy.digest(), gener.digest());
    }

    #[test]
    fn card_addresses_live_in_vm_data() {
        for addr in [
            layout::HEAP_BASE,
            TENURED_BASE,
            layout::HEAP_END,
            layout::VM_DATA_BASE, // static slots
        ] {
            let card = card_addr(addr);
            assert_eq!(
                jrt_trace::Region::classify(card),
                Some(jrt_trace::Region::VmData),
                "card for {addr:#x}"
            );
        }
        // Same card for neighbors, different cards across the shift.
        assert_eq!(
            card_addr(layout::HEAP_BASE),
            card_addr(layout::HEAP_BASE + 8)
        );
        assert_ne!(
            card_addr(layout::HEAP_BASE),
            card_addr(layout::HEAP_BASE + (1 << CARD_SHIFT))
        );
    }

    #[test]
    fn reset_clears_generational_state() {
        let mut h = tiny_gen_heap();
        let young = h.alloc_object(ClassId(0), 0).unwrap();
        let old = h.alloc_object(ClassId(0), 4).unwrap();
        let _pretenure = h.alloc_object(ClassId(0), 4).unwrap();
        h.set_field(old, 0, Value::Ref(young)).ok();
        h.reset();
        assert!(h.is_generational());
        assert!(h.remset().is_empty());
        assert!(h.take_gc_pending().is_none());
        assert_eq!(h.gen_stats().unwrap(), GenStats::default());
        // Cursors are back at the space bases.
        let a = h.alloc_object(ClassId(0), 0).unwrap();
        assert_eq!(h.header_addr(a).unwrap(), layout::HEAP_BASE);
    }
}
