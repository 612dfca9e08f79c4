//! The JIT translator, managed code cache, and call-site
//! devirtualization.
//!
//! Translation happens in the critical path of execution, exactly as
//! the paper describes for Kaffe: the first invocation of a method
//! (under the configured [`JitPolicy`](crate::JitPolicy)) walks its
//! bytecode, and for every bytecode
//!
//! * reads the bytecode bytes (data loads from the class area),
//! * runs the per-opcode code-generation routine (the translator's
//!   own text — heavily reused across bytecodes, which the paper
//!   credits for the translate portion's *better* I-cache locality),
//! * writes the generated native instructions into the code cache
//!   (cold **write misses** — the dominant data-cache cost of
//!   translation the paper isolates in Figure 5).
//!
//! Installed code lives in a [`CodeCacheManager`]: a bounded arena
//! with pluggable eviction and a sharing scope. Evicting an installed
//! method drops its [`CompiledMethod`] record, so the next execution
//! falls back to interpretation (and possibly re-translation — whose
//! cost re-enters the Translate phase of the trace). The optimizing
//! tier re-translates hot methods into denser code (fewer generated
//! instructions, more register-allocated locals) at a higher
//! translation cost.

use crate::config::ExecMode;
use jrt_bytecode::{MethodDef, MethodId, Op};
use jrt_codecache::{tier, CacheScope, CodeCacheConfig, CodeCacheManager, CodeCacheStats};
use jrt_codecache::{ProfileTable, TIER_OPT};
use jrt_ir::{lower, IrMethod, PcPlan};
use jrt_trace::{layout, Addr, IdHashMap, NativeInst, Phase, TraceSink};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-call-site receiver profile used for devirtualization: the JIT
/// emits a direct call while a site stays monomorphic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum CallSite {
    /// Never executed.
    #[default]
    Unseen,
    /// One receiver method observed.
    Mono(MethodId),
    /// Multiple receiver methods observed.
    Poly,
}

impl CallSite {
    /// Records an observed target; returns the updated state.
    pub(crate) fn observe(self, target: MethodId) -> CallSite {
        match self {
            CallSite::Unseen => CallSite::Mono(target),
            CallSite::Mono(t) if t == target => self,
            _ => CallSite::Poly,
        }
    }
}

/// A call site's view of its callee — everything [`JitState::ensure_compiled`]
/// needs to key, tier, translate, and install the method.
#[derive(Debug, Clone, Copy)]
pub struct CalleeSite<'a> {
    /// The method being invoked.
    pub callee: MethodId,
    /// The invoking thread (the cache key under `CacheScope::PerThread`).
    pub tid: u16,
    /// The callee's bytecode definition.
    pub def: &'a MethodDef,
    /// Where the bytecode image lives in the class area.
    pub code_addr: Addr,
}

/// Locals kept in registers by the baseline translation tier.
pub(crate) const TIER1_REG_LOCALS: usize = 6;
/// Locals kept in registers by the optimizing tier.
const TIER2_REG_LOCALS: usize = 12;
/// Decode/bookkeeping instructions per bytecode, baseline tier.
const TIER1_BOOKKEEPING: u8 = 10;
/// Decode/bookkeeping instructions per bytecode, optimizing tier
/// (extra analysis: liveness, better register assignment).
const TIER2_BOOKKEEPING: u8 = 16;

/// A translated method installed in the code cache.
#[derive(Debug, Clone)]
pub(crate) struct CompiledMethod {
    /// Entry address in the code cache.
    pub entry: Addr,
    /// Installed native code size in bytes.
    #[cfg_attr(not(test), allow(dead_code))]
    pub code_bytes: u32,
    /// Translation tier this code was generated at.
    pub tier: u8,
    /// Locals the generated code keeps in registers.
    pub reg_locals: usize,
    /// Installed native address, indexed by bytecode offset. Offsets
    /// between instruction boundaries hold `entry`.
    op_addr: Vec<Addr>,
}

impl CompiledMethod {
    /// Native address of the code generated for the bytecode at
    /// `pc`. Offsets between instructions (and past the end) map to
    /// `entry`; the stepper and the emitters only ever look up
    /// instruction boundaries.
    pub fn addr(&self, pc: u32) -> Addr {
        self.op_addr.get(pc as usize).copied().unwrap_or(self.entry)
    }
}

/// Number of native instructions the translator generates for one
/// bytecode (static code size; a naive early JIT emits bulky
/// sequences).
fn gen_insts(op: &Op) -> u32 {
    match op {
        Op::Nop => 1,
        Op::IConst(_) | Op::AConstNull => 2, // sethi + or
        Op::ILoad(n) | Op::IStore(n) | Op::ALoad(n) | Op::AStore(n) => {
            if usize::from(*n) < 6 {
                1
            } else {
                2
            }
        }
        Op::Pop | Op::Dup | Op::DupX1 | Op::Swap => 1,
        Op::IAdd | Op::ISub | Op::IAnd | Op::IOr | Op::IXor | Op::IShl | Op::IShr | Op::IUshr => 1,
        Op::IMul => 2,
        Op::IDiv | Op::IRem => 4, // zero check + divide sequence
        Op::INeg => 1,
        Op::IInc(_, _) => 2,
        Op::If(_, _) | Op::IfNull(_) | Op::IfNonNull(_) => 2,
        Op::IfICmp(_, _) | Op::IfACmpEq(_) | Op::IfACmpNe(_) => 2,
        Op::Goto(_) => 1,
        Op::TableSwitch { targets, .. } => 4 + targets.len() as u32,
        Op::New(_) => 8,
        Op::GetField(_) => 3,
        Op::PutField(_) => 3,
        Op::GetStatic(_) => 2,
        Op::PutStatic(_) => 2,
        Op::NewArray(_) => 8,
        Op::ArrayLength => 2,
        Op::ArrLoad(_) => 4,
        Op::ArrStore(_) => 5,
        Op::InvokeStatic(_) | Op::InvokeSpecial(_) => 6,
        Op::InvokeVirtual(_) => 8,
        Op::Return | Op::IReturn | Op::AReturn => 3,
        Op::MonitorEnter | Op::MonitorExit => 6,
    }
}

/// Generated-instruction count at a given tier: the optimizing tier
/// emits denser code (about two thirds of the baseline sequence).
fn gen_insts_at(op: &Op, tier: u8) -> u32 {
    let n = gen_insts(op);
    if tier >= TIER_OPT {
        (n * 2 / 3).max(1)
    } else {
        n
    }
}

const TRANSLATOR_STRIDE: Addr = 0x200;
const STUB_REGION_END: Addr = layout::CODE_CACHE_BASE + 0x1_0000;
const CODE_REGION_BASE: Addr = layout::CODE_CACHE_BASE + 0x10_0000;
/// Translator-text address of the code-cache manager's eviction
/// routine (past the per-opcode codegen routines).
const EVICTOR_ROUTINE: Addr = layout::TRANSLATOR_TEXT_BASE + 0x2_0000;
/// Translator-text address of the stack→register lowering pass
/// (abstract interpretation, folding, fusion).
const LOWERING_ROUTINE: Addr = layout::TRANSLATOR_TEXT_BASE + 0x3_0000;
/// Base of the simulated IR buffer: every lowered method's packed IR
/// words live here (VM data), and the IR interpreter's dispatch
/// fetches them as data loads.
const IR_BUFFER_BASE: Addr = layout::VM_DATA_BASE + 0x100_0000;

/// A method lowered to register IR, with its packed words placed in
/// the simulated IR buffer.
#[derive(Debug)]
pub(crate) struct LoweredMethod {
    /// The lowering result: per-pc plans, typed IR instructions, and
    /// pass statistics.
    pub ir: IrMethod,
    /// Simulated base address of this method's packed IR words.
    pub base: Addr,
}

/// Register-IR tier state: one lowering per method (never evicted —
/// the IR buffer is data, not code-cache real estate), plus the IR
/// interpreter's dispatch counter.
#[derive(Debug)]
pub(crate) struct IrState {
    /// Lowered methods, each lowered exactly once per VM, at
    /// `lowered[class][slot]` like [`ProfileTable`]'s rows: every step
    /// of an IR mode looks its method up here, so the lookup indexes
    /// instead of hashing.
    lowered: Vec<Vec<Option<Arc<LoweredMethod>>>>,
    /// Bump allocator over the IR buffer.
    next_addr: Addr,
    /// IR instructions dispatched by the IR interpreter (`Exec` pcs
    /// of interpreted frames). The register-IR headline number: at
    /// most one dispatch per bytecode, strictly fewer with fusion.
    pub dispatches: u64,
    /// Methods lowered.
    pub methods_lowered: u32,
}

impl IrState {
    fn new() -> Self {
        IrState {
            lowered: Vec::new(),
            next_addr: IR_BUFFER_BASE,
            dispatches: 0,
            methods_lowered: 0,
        }
    }
}

/// Translator state: the managed code cache and per-method
/// compilation records.
#[derive(Debug)]
pub(crate) struct JitState {
    mgr: CodeCacheManager,
    scope: CacheScope,
    /// Compiled records keyed by the manager's cache key (scope
    /// dependent; see [`JitState::key_for`]).
    // Cache keys and content ids are internally minted integers, so
    // the shared id hasher beats SipHash here.
    compiled: IdHashMap<u64, Arc<CompiledMethod>>,
    /// Bumped whenever `compiled` changes (an install, an eviction, a
    /// tier upgrade) and on [`JitState::reset_for_reuse`]: a frame that
    /// took its code at the current epoch holds what
    /// [`JitState::compiled_for_frame`] would find now.
    epoch: u64,
    /// Content interning for the shared scope: bytecode bytes → id.
    content_ids: HashMap<Vec<u8>, u64>,
    /// Cached method → content id (shared scope only).
    content_of: HashMap<MethodId, u64>,
    /// Per-call-site devirtualization state, keyed by
    /// (caller, bytecode offset).
    call_sites: HashMap<(MethodId, u32), CallSite>,
    /// Translator work-buffer high-water mark (footprint).
    pub translator_buffer_bytes: u64,
    /// Methods translated (counting re-translations and upgrades).
    pub methods_translated: u32,
    /// Total translator instructions emitted (sum of `T_i`).
    pub translate_insts: u64,
    /// The slice of [`JitState::translate_insts`] emitted at the
    /// optimizing tier. `translate_insts - opt_translate_insts` is the
    /// baseline-tier translate work, which a tiered policy shares with
    /// the translate-on-first-invocation JIT — the perf oracle's
    /// tiered-baseline invariant compares exactly that slice.
    pub opt_translate_insts: u64,
    /// Re-translations at the optimizing tier.
    pub tier2_recompiles: u32,
    /// Register-IR tier state (lowered methods, dispatch counter).
    pub ir: IrState,
}

impl JitState {
    /// Creates a code cache under `config`, allocating out of the
    /// simulated `Region::CodeCache` range above the stub region.
    pub fn new(config: CodeCacheConfig) -> Self {
        JitState {
            scope: config.scope,
            mgr: CodeCacheManager::new(config, CODE_REGION_BASE, layout::CODE_CACHE_END + 1),
            compiled: IdHashMap::default(),
            epoch: 0,
            content_ids: HashMap::new(),
            content_of: HashMap::new(),
            call_sites: HashMap::new(),
            translator_buffer_bytes: 0,
            methods_translated: 0,
            translate_insts: 0,
            opt_translate_insts: 0,
            tier2_recompiles: 0,
            ir: IrState::new(),
        }
    }

    /// Cache key for `(mid, tid)` under the configured scope. Shared
    /// scope interns the method's bytecode bytes so byte-identical
    /// bodies collapse to one key (ShareJIT install-once dedup).
    fn key_for(&mut self, mid: MethodId, tid: u16, def: &MethodDef) -> u64 {
        match self.scope {
            CacheScope::PerVm => (u64::from(mid.class.0) << 24) | u64::from(mid.index),
            CacheScope::PerThread => {
                (1 << 63)
                    | (u64::from(tid) << 46)
                    | (u64::from(mid.class.0) << 24)
                    | u64::from(mid.index)
            }
            CacheScope::Shared => {
                if let Some(&id) = self.content_of.get(&mid) {
                    return (1 << 62) | id;
                }
                // First time this method is considered: intern its
                // bytecode. A hit on already-interned content is the
                // ShareJIT dedup event the manager's stats report.
                let (id, dedup) = match self.content_ids.get(&def.code) {
                    Some(&id) => (id, true),
                    None => {
                        let next = self.content_ids.len() as u64;
                        self.content_ids.insert(def.code.clone(), next);
                        (next, false)
                    }
                };
                self.mgr.note_shared_lookup(dedup);
                self.content_of.insert(mid, id);
                (1 << 62) | id
            }
        }
    }

    /// Resets per-run and program-relative state while keeping the
    /// shared code cache warm: installed segments, their compiled
    /// records, and the content-id interning table survive, so a
    /// later job whose method bodies are byte-identical (same
    /// program, or another tenant's copy of it) resolves to the
    /// existing translation without paying for its own. Everything
    /// keyed by [`MethodId`] — the method→content map, call-site
    /// devirtualization state, lowered IR — is dropped, because ids
    /// name methods of one specific program. Only meaningful under
    /// [`CacheScope::Shared`]; per-VM and per-thread caches must be
    /// rebuilt from scratch instead (their keys are method ids too).
    pub fn reset_for_reuse(&mut self) {
        debug_assert_eq!(self.scope, CacheScope::Shared);
        self.epoch += 1;
        self.content_of.clear();
        self.call_sites.clear();
        self.translator_buffer_bytes = 0;
        self.methods_translated = 0;
        self.translate_insts = 0;
        self.opt_translate_insts = 0;
        self.tier2_recompiles = 0;
        self.ir = IrState::new();
    }

    /// Read-only key lookup: `None` if the shared-scope content id
    /// has not been interned yet (the method was never considered for
    /// translation).
    fn key_lookup(&self, mid: MethodId, tid: u16) -> Option<u64> {
        match self.scope {
            CacheScope::PerVm => Some((u64::from(mid.class.0) << 24) | u64::from(mid.index)),
            CacheScope::PerThread => Some(
                (1 << 63)
                    | (u64::from(tid) << 46)
                    | (u64::from(mid.class.0) << 24)
                    | u64::from(mid.index),
            ),
            CacheScope::Shared => self.content_of.get(&mid).map(|&id| (1 << 62) | id),
        }
    }

    /// Whether `(mid, tid)` currently resolves to installed code.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_compiled(&self, mid: MethodId, tid: u16) -> bool {
        self.key_lookup(mid, tid)
            .is_some_and(|k| self.compiled.contains_key(&k))
    }

    /// The compiled record for `(mid, tid)`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn compiled(&self, mid: MethodId, tid: u16) -> Option<&Arc<CompiledMethod>> {
        self.compiled.get(&self.key_lookup(mid, tid)?)
    }

    /// Cheap shared handle to the compiled record for a frame (lets
    /// the caller keep the record while mutating the rest of the JIT
    /// state). `None` after eviction — the frame must demote to
    /// interpretation. Cold: a frame keeps its handle until the
    /// [`JitState::epoch`] moves.
    #[cold]
    pub fn compiled_for_frame(&self, mid: MethodId, tid: u16) -> Option<Arc<CompiledMethod>> {
        self.compiled.get(&self.key_lookup(mid, tid)?).cloned()
    }

    /// The current epoch of the compiled records: a handle from
    /// [`JitState::compiled_for_frame`] stays what it would return as
    /// long as this does not change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records an observed receiver at a virtual call site and
    /// returns the site's updated state.
    pub fn observe_call_site(&mut self, caller: MethodId, pc: u32, target: MethodId) -> CallSite {
        let slot = self.call_sites.entry((caller, pc)).or_default();
        *slot = slot.observe(target);
        *slot
    }

    /// Native entry address used by calls to `mid` from thread `tid`:
    /// the installed entry when translated, a (deterministic) stub
    /// otherwise.
    pub fn entry_addr(&self, mid: MethodId, tid: u16) -> Addr {
        if let Some(cm) = self
            .key_lookup(mid, tid)
            .and_then(|k| self.compiled.get(&k))
        {
            return cm.entry;
        }
        let key = (u64::from(mid.class.0) << 20) ^ u64::from(mid.index);
        layout::CODE_CACHE_BASE + (key * 16) % (STUB_REGION_END - layout::CODE_CACHE_BASE)
    }

    /// Live (post-eviction) code-cache bytes — the Table 1 footprint.
    pub fn live_bytes(&self) -> u64 {
        self.mgr.live_bytes()
    }

    /// Cumulative code bytes ever installed (the historical
    /// append-only figure).
    pub fn ever_bytes(&self) -> u64 {
        self.mgr.ever_bytes()
    }

    /// The manager's lifetime counters.
    pub fn cache_stats(&self) -> CodeCacheStats {
        self.mgr.stats()
    }

    /// The single policy decision point shared by invokes and thread
    /// starts: decides the tier for the callee described by `site`,
    /// translates or upgrades if needed (charging `T_i` to the
    /// profile), and returns whether the callee should run translated
    /// code.
    pub fn ensure_compiled(
        &mut self,
        mode: &ExecMode,
        profile: &mut ProfileTable,
        site: CalleeSite<'_>,
        sink: &mut dyn TraceSink,
    ) -> bool {
        let CalleeSite {
            callee,
            tid,
            def,
            code_addr,
        } = site;
        let (policy, ir) = match mode {
            ExecMode::Interp => return false,
            ExecMode::Jit(policy) => (policy, None),
            ExecMode::IrInterp => {
                // Lower once; the IR interpreter runs the method.
                self.ensure_lowered(callee, def, code_addr, profile, sink);
                return false;
            }
            ExecMode::IrJit(policy) => {
                let lm = self.ensure_lowered(callee, def, code_addr, profile, sink);
                (policy, Some(lm))
            }
        };
        let key = self.key_for(callee, tid, def);
        let compiled_tier = self.compiled.get(&key).map(|cm| cm.tier);
        let Some(want) = tier::decide(policy, callee, profile.get(callee), compiled_tier) else {
            return false;
        };
        match compiled_tier {
            Some(have) if have >= want => {
                self.mgr.touch(key);
                true
            }
            have => {
                if have.is_some() {
                    // Tier upgrade: release the old install, then
                    // re-translate at the hotter tier.
                    self.mgr.remove(key);
                    self.compiled.remove(&key);
                    self.epoch += 1;
                    self.tier2_recompiles += 1;
                }
                match self.translate_keyed(key, def, code_addr, ir.as_deref(), want, sink) {
                    Some(t) => {
                        profile.get_mut(callee).translate_cycles += t;
                        true
                    }
                    // Install failure (method bigger than the cache):
                    // pinned to interpretation.
                    None => false,
                }
            }
        }
    }

    /// The lowered-IR record for `mid`, if the method has been
    /// lowered (always, in IR modes, by the time a frame runs it).
    /// Borrowed, not cloned: this sits on the IR interpreter's
    /// per-bytecode path.
    #[inline]
    pub fn lowered(&self, mid: MethodId) -> Option<&Arc<LoweredMethod>> {
        self.ir
            .lowered
            .get(mid.class.0 as usize)?
            .get(mid.index as usize)?
            .as_ref()
    }

    /// Lowers `mid` to register IR if it has not been lowered yet,
    /// emitting the lowering pass's trace (bytecode reads + abstract
    /// interpretation in translator text, packed-IR-word stores into
    /// the IR buffer) as Translate-phase work charged to the method's
    /// profile, like translation proper.
    fn ensure_lowered(
        &mut self,
        mid: MethodId,
        def: &MethodDef,
        code_addr: Addr,
        profile: &mut ProfileTable,
        sink: &mut dyn TraceSink,
    ) -> Arc<LoweredMethod> {
        if let Some(lm) = self.lowered(mid) {
            return Arc::clone(lm);
        }
        let ir = lower(&def.code).expect("verified code lowers");
        let mut emitted = 0u64;
        let mut emit = |i: NativeInst, emitted: &mut u64| {
            sink.accept(&i);
            *emitted += 1;
        };
        // One pass over the bytecode: read each instruction from the
        // class area and run the abstract-interpretation bookkeeping
        // (stack map, folding, fusion window).
        let mut pc = 0usize;
        while pc < def.code.len() {
            let (_, len) = Op::decode(&def.code, pc).expect("verified code decodes");
            emit(
                NativeInst::load(
                    LOWERING_ROUTINE,
                    code_addr + u64::from(pc as u32),
                    4,
                    Phase::Translate,
                )
                .with_dst(4),
                &mut emitted,
            );
            for k in 0..3u64 {
                emit(
                    NativeInst::alu(LOWERING_ROUTINE + 4 + 4 * k, Phase::Translate)
                        .with_dst(16 + k as u8),
                    &mut emitted,
                );
            }
            pc += len;
        }
        // Pack the IR words into the IR buffer: data stores, not
        // code-cache installs — the IR interpreter fetches these as
        // data, so lowering never pays compulsory I-cache misses.
        let base = self.ir.next_addr;
        let words = u64::from(ir.total_words());
        for w in 0..words {
            emit(
                NativeInst::store(LOWERING_ROUTINE + 0x400, base + 4 * w, 4, Phase::Translate)
                    .with_srcs(16, None),
                &mut emitted,
            );
        }
        self.ir.next_addr = (base + 4 * words + 63) & !63;
        self.ir.methods_lowered += 1;
        self.translate_insts += emitted;
        profile.get_mut(mid).translate_cycles += emitted;
        let lm = Arc::new(LoweredMethod { ir, base });
        let (class, slot) = (mid.class.0 as usize, mid.index as usize);
        if class >= self.ir.lowered.len() {
            self.ir.lowered.resize_with(class + 1, Vec::new);
        }
        let row = &mut self.ir.lowered[class];
        if slot >= row.len() {
            row.resize(slot + 1, None);
        }
        row[slot] = Some(Arc::clone(&lm));
        lm
    }

    /// Translates `def` at `tier`, emitting the translation trace
    /// (including eviction bookkeeping for any victims) and installing
    /// the result under `key`. Without `ir`, every pc reads its
    /// bytecode from the class area at `code_addr` and generates code.
    /// With the lowered method, the generator walks the IR plan
    /// instead: only [`PcPlan::Exec`] pcs run the per-opcode codegen
    /// routine, reading packed IR words from the IR buffer (the
    /// lowering pass already did the bytecode decoding); covered and
    /// elided pcs cost one cursor-advance instruction and install
    /// nothing — their work was fused into a neighbour's sequence, so
    /// the IR yields denser installed code from a cheaper pass.
    /// Returns the number of translator instructions emitted (`T_i` in
    /// the paper's cost model), or `None` if the method cannot fit in
    /// the cache.
    fn translate_keyed(
        &mut self,
        key: u64,
        def: &MethodDef,
        code_addr: Addr,
        ir: Option<&LoweredMethod>,
        tier: u8,
        sink: &mut dyn TraceSink,
    ) -> Option<u64> {
        assert!(!self.compiled.contains_key(&key), "method translated twice");
        assert!(!def.flags.is_native, "native methods are not translated");
        let bookkeeping = if tier >= TIER_OPT {
            TIER2_BOOKKEEPING
        } else {
            TIER1_BOOKKEEPING
        };

        // Pre-pass: decode, locate each pc's translator input (first
        // address and word count; none for a pc that generates no
        // code) and size the generated code, so the manager can place
        // (and make room for) the segment before the first store is
        // emitted.
        let mut decoded = Vec::new();
        let mut total_gen = 0u64;
        let mut pc = 0usize;
        while pc < def.code.len() {
            let (op, len) = Op::decode(&def.code, pc).expect("verified code decodes");
            let input = match ir.map(|lm| (lm, lm.ir.plan_at(pc as u32))) {
                None => Some((code_addr + pc as u64, len.div_ceil(4) as u64)),
                Some((
                    lm,
                    PcPlan::Exec {
                        word_off, words, ..
                    },
                )) => Some((lm.base + 4 * u64::from(word_off), u64::from(words))),
                Some(_) => None,
            };
            let n = gen_insts_at(&op, tier);
            if input.is_some() {
                total_gen += u64::from(n);
            }
            decoded.push((pc, op.dispatch_index(), n, input));
            pc += len;
        }
        let code_bytes = 4 * total_gen;

        let outcome = self.mgr.install(key, code_bytes);
        let mut emitted = self.evict_victims(&outcome.evicted, sink);
        let Some(entry) = outcome.entry else {
            // Failed install: the eviction bookkeeping above still ran
            // (and was emitted to the sink), so it must count as
            // translator work — counters and the Translate-phase event
            // stream stay equal even on the failure path.
            self.translate_insts += emitted;
            if tier >= TIER_OPT {
                self.opt_translate_insts += emitted;
            }
            return None;
        };
        let mut install = entry;

        let mut op_addr = vec![entry; def.code.len()];
        for (pc, opcode, n, input) in decoded {
            // Fused or folded pcs map to the next generated address.
            op_addr[pc] = install;
            let Some((src, words)) = input else {
                sink.accept(
                    &NativeInst::alu(LOWERING_ROUTINE + 0x800, Phase::Translate).with_dst(16),
                );
                emitted += 1;
                continue;
            };
            // The per-opcode code-generation routine: high code reuse
            // across bytecodes of the same kind.
            let routine = layout::TRANSLATOR_TEXT_BASE + Addr::from(opcode) * TRANSLATOR_STRIDE;
            let mut tpc = routine;
            let mut emit = |i: NativeInst, emitted: &mut u64| {
                sink.accept(&i);
                *emitted += 1;
            };

            // Read the input: the bytecode (and operands) from the
            // class area, or the packed IR words from the IR buffer.
            for k in 0..words {
                emit(
                    NativeInst::load(tpc, src + 4 * k, 4, Phase::Translate).with_dst(4),
                    &mut emitted,
                );
                tpc += 4;
            }
            // Decode / stack-simulation / CFG bookkeeping. The cost
            // is calibrated so translating a bytecode costs slightly
            // more than one interpretation of it — which is what makes
            // the paper's oracle (Figure 1) worth only 10-15%. The
            // optimizing tier does more analysis per bytecode.
            for k in 0..bookkeeping {
                // Mostly independent bookkeeping (separate fields of
                // the translator's state), so the emission loop has
                // instruction-level parallelism like real compilers.
                emit(
                    NativeInst::alu(tpc, Phase::Translate).with_dst(16 + (k & 7)),
                    &mut emitted,
                );
                tpc += 4;
            }
            // Code-generation table lookups.
            emit(
                NativeInst::load(
                    tpc,
                    layout::VM_DATA_BASE + Addr::from(opcode) * 64,
                    4,
                    Phase::Translate,
                )
                .with_dst(6),
                &mut emitted,
            );
            tpc += 4;
            emit(
                NativeInst::load(
                    tpc,
                    layout::VM_DATA_BASE + 0x4000 + Addr::from(opcode) * 32,
                    4,
                    Phase::Translate,
                )
                .with_dst(6),
                &mut emitted,
            );
            tpc += 4;

            // Generate and install the native instructions: the
            // stores into the code cache are the compulsory write
            // misses of Figure 5.
            for k in 0..n {
                let reg = 24 + (k & 7) as u8;
                emit(
                    NativeInst::alu(tpc, Phase::Translate)
                        .with_dst(reg)
                        .with_srcs(6, None),
                    &mut emitted,
                );
                tpc += 4;
                emit(
                    NativeInst::store(tpc, install, 4, Phase::Translate).with_srcs(reg, None),
                    &mut emitted,
                );
                tpc += 4;
                install += 4;
            }
        }

        let code_bytes = (install - entry) as u32;
        self.translator_buffer_bytes = self
            .translator_buffer_bytes
            .max(4 * u64::from(code_bytes) / 3 + 256);
        self.methods_translated += 1;
        self.translate_insts += emitted;
        if tier >= TIER_OPT {
            self.opt_translate_insts += emitted;
        }

        self.epoch += 1;
        self.compiled.insert(
            key,
            Arc::new(CompiledMethod {
                entry,
                code_bytes,
                tier,
                reg_locals: if tier >= TIER_OPT {
                    TIER2_REG_LOCALS
                } else {
                    TIER1_REG_LOCALS
                },
                op_addr,
            }),
        );
        Some(emitted)
    }

    /// Eviction bookkeeping for a translation's install: the manager
    /// walks its segment table (VM data) and unlinks each victim —
    /// runtime work that lands in the Translate phase, exactly where
    /// re-translation cost should show up. Drops the victims'
    /// compiled records and returns the instruction count emitted.
    fn evict_victims(&mut self, evicted: &[(u64, Addr)], sink: &mut dyn TraceSink) -> u64 {
        let mut emitted = 0u64;
        for (victim, victim_entry) in evicted {
            self.compiled.remove(victim);
            self.epoch += 1;
            let tag = victim_entry & 0xFFFF;
            let seq = [
                NativeInst::alu(EVICTOR_ROUTINE, Phase::Translate).with_dst(20),
                NativeInst::load(
                    EVICTOR_ROUTINE + 4,
                    layout::VM_DATA_BASE + 0x8000 + tag,
                    4,
                    Phase::Translate,
                )
                .with_dst(21),
                NativeInst::alu(EVICTOR_ROUTINE + 8, Phase::Translate)
                    .with_dst(22)
                    .with_srcs(21, None),
                NativeInst::store(
                    EVICTOR_ROUTINE + 12,
                    layout::VM_DATA_BASE + 0x8000 + tag,
                    4,
                    Phase::Translate,
                )
                .with_srcs(22, None),
            ];
            for i in seq {
                sink.accept(&i);
                emitted += 1;
            }
        }
        emitted
    }

    /// Translates `(mid, tid)` at the baseline tier (tests and the
    /// historical direct entry point).
    #[cfg(test)]
    pub fn translate(
        &mut self,
        mid: MethodId,
        def: &MethodDef,
        code_addr: Addr,
        sink: &mut dyn TraceSink,
    ) -> u64 {
        let key = self.key_for(mid, 0, def);
        self.translate_keyed(
            key,
            def,
            code_addr,
            None,
            jrt_codecache::TIER_BASELINE,
            sink,
        )
        .expect("unbounded install succeeds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_bytecode::{ClassAsm, ClassId, MethodAsm, Program, RetKind};
    use jrt_codecache::{EvictionPolicy, TIER_BASELINE};
    use jrt_trace::{InstMix, RecordingSink, Region};

    fn sample() -> (Program, MethodId) {
        let mut c = ClassAsm::new("Main");
        let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
        let top = m.new_label();
        let end = m.new_label();
        m.iconst(0).istore(0).iconst(0).istore(1);
        m.bind(top);
        m.iload(1).iconst(50).if_icmp_ge(end);
        m.iload(0).iload(1).iadd().istore(0);
        m.iinc(1, 1).goto(top);
        m.bind(end);
        m.iload(0).ireturn();
        c.add_method(m);
        let p = Program::build(vec![c], "Main", "main").unwrap();
        let mid = p.entry();
        (p, mid)
    }

    fn jit() -> JitState {
        JitState::new(CodeCacheConfig::default())
    }

    /// The offset of every instruction in `def`.
    fn boundaries(def: &MethodDef) -> Vec<u32> {
        let mut pcs = Vec::new();
        let mut pc = 0;
        while pc < def.code.len() {
            pcs.push(pc as u32);
            pc += Op::decode(&def.code, pc).unwrap().1;
        }
        pcs
    }

    #[test]
    fn translation_emits_code_cache_writes() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        let mut jit = jit();
        let mut rec = RecordingSink::new();
        let t = jit.translate(mid, def, layout::CLASS_AREA_BASE + 64, &mut rec);
        assert!(t > 0);
        assert_eq!(t as usize, rec.len());
        assert!(jit.is_compiled(mid, 0));
        let writes: Vec<_> = rec
            .events
            .iter()
            .filter(|i| i.is_write())
            .map(|i| i.mem.unwrap().addr)
            .collect();
        assert!(!writes.is_empty());
        assert!(writes
            .iter()
            .all(|&a| Region::classify(a) == Some(Region::CodeCache)));
        // All of it is Translate phase.
        assert!(rec.events.iter().all(|i| i.phase == Phase::Translate));
    }

    #[test]
    fn translation_reads_bytecode_from_class_area() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        let mut jit = jit();
        let mut mix = InstMix::new();
        jit.translate(mid, def, layout::CLASS_AREA_BASE + 64, &mut mix);
        assert!(mix.count(jrt_trace::InstClass::Load) > 0);
        assert!(mix.count(jrt_trace::InstClass::Store) > 0);
    }

    #[test]
    fn installed_addresses_are_ordered_and_disjoint() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        let mut jit = jit();
        let mut sink = jrt_trace::CountingSink::new();
        jit.translate(mid, def, layout::CLASS_AREA_BASE + 64, &mut sink);
        let cm = jit.compiled(mid, 0).unwrap();
        let pcs = boundaries(def);
        let mut addrs: Vec<Addr> = pcs.iter().map(|&pc| cm.addr(pc)).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), pcs.len(), "each bytecode gets its own code");
        assert!(cm.code_bytes > 0);
        assert_eq!(cm.entry, cm.addr(0));
        assert_eq!(cm.tier, TIER_BASELINE);
        assert_eq!(cm.reg_locals, TIER1_REG_LOCALS);
    }

    #[test]
    fn entry_addr_is_stub_until_translated() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        let mut jit = jit();
        let stub = jit.entry_addr(mid, 0);
        assert!(stub < STUB_REGION_END);
        let mut sink = jrt_trace::CountingSink::new();
        jit.translate(mid, def, layout::CLASS_AREA_BASE + 64, &mut sink);
        let real = jit.entry_addr(mid, 0);
        assert!(real >= CODE_REGION_BASE);
        assert_ne!(stub, real);
    }

    #[test]
    fn second_method_installs_after_first() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        let mut jit = jit();
        let mut sink = jrt_trace::CountingSink::new();
        jit.translate(mid, def, layout::CLASS_AREA_BASE + 64, &mut sink);
        let first_entry = jit.entry_addr(mid, 0);
        let other = MethodId {
            class: ClassId(0),
            index: 99,
        };
        jit.translate(other, def, layout::CLASS_AREA_BASE + 964, &mut sink);
        assert!(jit.entry_addr(other, 0) > first_entry);
        assert_eq!(jit.methods_translated, 2);
        assert!(jit.live_bytes() > 0);
        assert_eq!(jit.live_bytes(), jit.ever_bytes());
    }

    #[test]
    fn call_site_profile_transitions() {
        let a = MethodId {
            class: ClassId(0),
            index: 1,
        };
        let b = MethodId {
            class: ClassId(0),
            index: 2,
        };
        let s = CallSite::Unseen;
        let s = s.observe(a);
        assert_eq!(s, CallSite::Mono(a));
        let s = s.observe(a);
        assert_eq!(s, CallSite::Mono(a));
        let s = s.observe(b);
        assert_eq!(s, CallSite::Poly);
        assert_eq!(s.observe(a), CallSite::Poly);
    }

    #[test]
    #[should_panic(expected = "translated twice")]
    fn double_translation_panics() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        let mut jit = jit();
        let mut sink = jrt_trace::CountingSink::new();
        jit.translate(mid, def, layout::CLASS_AREA_BASE, &mut sink);
        jit.translate(mid, def, layout::CLASS_AREA_BASE, &mut sink);
    }

    #[test]
    fn eviction_drops_compiled_record_and_emits_translate_events() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        // Capacity fits exactly one copy of the sample method.
        let one = {
            let mut probe = jit();
            let mut sink = jrt_trace::CountingSink::new();
            probe.translate(mid, def, layout::CLASS_AREA_BASE, &mut sink);
            probe.live_bytes()
        };
        let mut jit = JitState::new(CodeCacheConfig::bounded(one, EvictionPolicy::Lru));
        let mut sink = jrt_trace::CountingSink::new();
        jit.translate(mid, def, layout::CLASS_AREA_BASE, &mut sink);
        let other = MethodId {
            class: ClassId(0),
            index: 99,
        };
        let mut rec = RecordingSink::new();
        let epoch = jit.epoch();
        jit.translate(other, def, layout::CLASS_AREA_BASE + 964, &mut rec);
        assert_eq!(jit.epoch(), epoch + 2, "an eviction and an install");
        assert!(!jit.is_compiled(mid, 0), "first method evicted");
        assert!(jit.is_compiled(other, 0));
        assert_eq!(jit.cache_stats().evictions, 1);
        assert!(rec.events.iter().all(|i| i.phase == Phase::Translate));
        assert!(rec.events.iter().any(|i| i.pc >= EVICTOR_ROUTINE));
    }

    #[test]
    fn shared_scope_dedups_identical_bodies() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        let cfg = CodeCacheConfig::default().with_scope(CacheScope::Shared);
        let mut jit = JitState::new(cfg);
        let mut sink = jrt_trace::CountingSink::new();
        jit.translate(mid, def, layout::CLASS_AREA_BASE, &mut sink);
        // A different method with byte-identical code resolves to the
        // same installed segment without translating again.
        let other = MethodId {
            class: ClassId(7),
            index: 3,
        };
        assert!(!jit.is_compiled(other, 0));
        let mut profile = ProfileTable::new();
        let mode = ExecMode::Jit(jrt_codecache::JitPolicy::FirstInvocation);
        let before = jit.methods_translated;
        assert!(jit.ensure_compiled(
            &mode,
            &mut profile,
            CalleeSite {
                callee: other,
                tid: 0,
                def,
                code_addr: layout::CLASS_AREA_BASE,
            },
            &mut sink
        ));
        assert_eq!(jit.methods_translated, before, "no second translation");
        assert_eq!(jit.entry_addr(other, 0), jit.entry_addr(mid, 0));
    }

    #[test]
    fn per_thread_scope_translates_per_thread() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        let cfg = CodeCacheConfig::default().with_scope(CacheScope::PerThread);
        let mut jit = JitState::new(cfg);
        let mut profile = ProfileTable::new();
        let mode = ExecMode::Jit(jrt_codecache::JitPolicy::FirstInvocation);
        let mut sink = jrt_trace::CountingSink::new();
        assert!(jit.ensure_compiled(
            &mode,
            &mut profile,
            CalleeSite {
                callee: mid,
                tid: 0,
                def,
                code_addr: layout::CLASS_AREA_BASE,
            },
            &mut sink
        ));
        assert!(!jit.is_compiled(mid, 1), "thread 1 has a private cache");
        assert!(jit.ensure_compiled(
            &mode,
            &mut profile,
            CalleeSite {
                callee: mid,
                tid: 1,
                def,
                code_addr: layout::CLASS_AREA_BASE,
            },
            &mut sink
        ));
        assert_eq!(jit.methods_translated, 2);
        assert_ne!(jit.entry_addr(mid, 0), jit.entry_addr(mid, 1));
    }

    #[test]
    fn tiered_upgrade_recompiles_denser_code() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        let mut jit = jit();
        let mut profile = ProfileTable::new();
        let mode = ExecMode::Jit(jrt_codecache::JitPolicy::Tiered { t1: 1, t2: 4 });
        let mut sink = jrt_trace::CountingSink::new();
        profile.record_invocation(mid);
        let site = CalleeSite {
            callee: mid,
            tid: 0,
            def,
            code_addr: layout::CLASS_AREA_BASE,
        };
        assert!(jit.ensure_compiled(&mode, &mut profile, site, &mut sink));
        let t1_bytes = jit.compiled(mid, 0).unwrap().code_bytes;
        assert_eq!(jit.compiled(mid, 0).unwrap().tier, TIER_BASELINE);
        for _ in 0..4 {
            profile.record_invocation(mid);
        }
        let epoch = jit.epoch();
        assert!(jit.ensure_compiled(&mode, &mut profile, site, &mut sink));
        assert_eq!(jit.epoch(), epoch + 2, "a removal and an install");
        let cm = jit.compiled(mid, 0).unwrap();
        assert_eq!(cm.tier, TIER_OPT);
        assert_eq!(cm.reg_locals, TIER2_REG_LOCALS);
        assert!(cm.code_bytes < t1_bytes, "opt tier emits denser code");
        assert_eq!(jit.tier2_recompiles, 1);
        assert_eq!(jit.methods_translated, 2);
        assert_eq!(jit.cache_stats().evictions, 0, "upgrade is not an eviction");
    }

    #[test]
    fn ir_interp_mode_lowers_once_and_never_installs() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        let mut jit = jit();
        let mut profile = ProfileTable::new();
        let mode = ExecMode::IrInterp;
        let mut rec = RecordingSink::new();
        let site = CalleeSite {
            callee: mid,
            tid: 0,
            def,
            code_addr: layout::CLASS_AREA_BASE,
        };
        assert!(!jit.ensure_compiled(&mode, &mut profile, site, &mut rec));
        assert!(
            !jit.is_compiled(mid, 0),
            "IR interpretation installs nothing"
        );
        assert_eq!(jit.methods_translated, 0);
        assert_eq!(jit.ir.methods_lowered, 1);
        assert!(jit.translate_insts > 0, "lowering is translate work");
        let lowering = jit.translate_insts;
        assert!(rec.events.iter().all(|i| i.phase == Phase::Translate));
        // Packed-IR stores land in the IR buffer (VM data), never the
        // code cache.
        assert!(rec
            .events
            .iter()
            .filter(|i| i.is_write())
            .all(|i| Region::classify(i.mem.unwrap().addr) == Some(Region::VmData)));
        // Memoized: re-entering the method costs nothing.
        assert!(!jit.ensure_compiled(&mode, &mut profile, site, &mut rec));
        assert_eq!(jit.ir.methods_lowered, 1);
        assert_eq!(jit.translate_insts, lowering);
        let lm = jit.lowered(mid).expect("lowered record");
        assert!(lm.ir.stats.ir_insts > 0);
        assert!(lm.ir.stats.ir_insts < lm.ir.stats.bytecodes, "fusion won");
        assert!(lm.base >= IR_BUFFER_BASE);
    }

    #[test]
    fn ir_jit_installs_denser_code_than_baseline() {
        let (p, mid) = sample();
        let def = p.method_def(mid);
        let mut profile = ProfileTable::new();
        let mut sink = jrt_trace::CountingSink::new();
        let site = CalleeSite {
            callee: mid,
            tid: 0,
            def,
            code_addr: layout::CLASS_AREA_BASE,
        };

        let mut a = jit();
        assert!(a.ensure_compiled(
            &ExecMode::Jit(jrt_codecache::JitPolicy::FirstInvocation),
            &mut profile,
            site,
            &mut sink
        ));
        let stack = a.compiled(mid, 0).unwrap().clone();

        let mut b = jit();
        assert!(b.ensure_compiled(
            &ExecMode::IrJit(jrt_codecache::JitPolicy::FirstInvocation),
            &mut profile,
            site,
            &mut sink
        ));
        let ir = b.compiled(mid, 0).unwrap().clone();
        assert!(
            ir.code_bytes < stack.code_bytes,
            "fusion installs denser code: {} vs {}",
            ir.code_bytes,
            stack.code_bytes
        );
        // Every bytecode keeps a native address for the stepper, fused
        // or not: both flavours map each boundary into their own code.
        for cm in [&stack, &ir] {
            assert_eq!(cm.op_addr.len(), def.code.len());
            for pc in boundaries(def) {
                let addr = cm.addr(pc);
                assert!(
                    (cm.entry..cm.entry + u64::from(cm.code_bytes)).contains(&addr),
                    "pc {pc} maps outside its method's code"
                );
            }
        }
        assert_eq!(b.ir.methods_lowered, 1);
        assert_eq!(b.methods_translated, 1);
    }
}
