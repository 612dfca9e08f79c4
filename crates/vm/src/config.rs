//! VM configuration: execution mode, JIT policy, code-cache
//! management, sync engine choice.
//!
//! The when-to-translate policy ([`JitPolicy`]) and the oracle
//! ([`OracleDecisions`]) live in `jrt-codecache` next to the eviction
//! and tiering machinery they drive; they are re-exported here so VM
//! users keep a single configuration surface.

pub use jrt_codecache::{CacheScope, CodeCacheConfig, EvictionPolicy, JitPolicy, OracleDecisions};

/// How the VM executes bytecode.
#[derive(Debug, Clone)]
pub enum ExecMode {
    /// Pure interpretation.
    Interp,
    /// JIT compilation governed by a [`JitPolicy`]; methods the policy
    /// declines to translate are interpreted.
    Jit(JitPolicy),
    /// Register-IR interpretation: every method is lowered once
    /// (stack→register superinstruction fusion, constant folding,
    /// redundant-load elimination) and then executed by the IR
    /// interpreter, which dispatches at most one packed IR
    /// instruction per bytecode and keeps the operand stack in
    /// registers.
    IrInterp,
    /// Register-IR JIT: methods are lowered as in
    /// [`ExecMode::IrInterp`], and a [`JitPolicy`] decides which
    /// lowered methods the IR-backed translator compiles into the
    /// code cache (denser code — fused pcs generate nothing); methods
    /// the policy declines, and evicted ones, run on the IR
    /// interpreter.
    IrJit(JitPolicy),
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::Jit(JitPolicy::default())
    }
}

impl ExecMode {
    /// Short label for tables ("interp" / "jit" / "opt" / "thresh" /
    /// "tiered" / "ir-interp" / "ir-jit").
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Interp => "interp",
            ExecMode::Jit(JitPolicy::FirstInvocation) => "jit",
            ExecMode::Jit(JitPolicy::Threshold(_)) => "thresh",
            ExecMode::Jit(JitPolicy::Oracle(_)) => "opt",
            ExecMode::Jit(JitPolicy::Tiered { .. }) => "tiered",
            ExecMode::IrInterp => "ir-interp",
            ExecMode::IrJit(_) => "ir-jit",
        }
    }

    /// Whether this mode runs through the register-IR tier (methods
    /// are lowered before execution).
    pub fn is_ir(&self) -> bool {
        matches!(self, ExecMode::IrInterp | ExecMode::IrJit(_))
    }
}

/// Which monitor implementation the VM uses (Section 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncKind {
    /// JDK 1.1.6 monitor cache (fat locks).
    #[default]
    MonitorCache,
    /// Bacon-style 24-bit thin locks.
    ThinLock,
    /// The paper's proposed 1-bit lock.
    OneBit,
}

impl SyncKind {
    /// All kinds, in paper order.
    pub const ALL: [SyncKind; 3] = [SyncKind::MonitorCache, SyncKind::ThinLock, SyncKind::OneBit];
}

/// Garbage-collection configuration.
///
/// The default ([`GcConfig::Legacy`]) reproduces the original
/// single-space heap: allocation bumps from the heap base and a full
/// stop-the-world collection runs only when
/// [`VmConfig::gc_threshold`] bytes have been allocated since the
/// last collection — which the paper-suite workloads never reach, so
/// every pre-existing experiment trace is byte-identical.
/// [`GcConfig::Generational`] switches the heap to a nursery +
/// tenured layout with card-marking write barriers
/// ([`Phase::GcBarrier`](jrt_trace::Phase) trace events at every
/// reference store), copying minor collections driven by the
/// remembered set, and copying-compaction major collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcConfig {
    /// Original growth-only heap with threshold-triggered mark-sweep.
    #[default]
    Legacy,
    /// Generational copying GC: bump-allocating nursery evacuated
    /// into tenured space on minor collections, card-marking write
    /// barriers, remembered-set scanning, copying compaction of
    /// tenured space on major collections.
    Generational {
        /// Nursery capacity in bytes; a minor collection triggers
        /// when a nursery allocation would not fit. Tiny nurseries
        /// force frequent collections (the GC-equivalence tests use
        /// this).
        nursery_bytes: u64,
        /// Tenured-space budget in bytes allocated since the last
        /// major collection before a full collection triggers.
        tenured_bytes: u64,
    },
}

impl GcConfig {
    /// The generational configuration with production-shaped defaults
    /// (256 KiB nursery, 8 MiB tenured budget).
    pub fn generational() -> Self {
        GcConfig::Generational {
            nursery_bytes: 256 << 10,
            tenured_bytes: 8 << 20,
        }
    }

    /// A deliberately tiny nursery that forces frequent minor
    /// collections even on tiny workloads — the GC-stress
    /// configuration used by the equivalence tests and the fuzz-gc CI
    /// smoke leg.
    pub fn tiny_nursery() -> Self {
        GcConfig::Generational {
            nursery_bytes: 2 << 10,
            tenured_bytes: 64 << 10,
        }
    }

    /// Whether this configuration enables the generational collector
    /// (and therefore write-barrier emission).
    pub fn is_generational(&self) -> bool {
        matches!(self, GcConfig::Generational { .. })
    }
}

/// Full VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Execution mode.
    pub mode: ExecMode,
    /// Monitor implementation.
    pub sync: SyncKind,
    /// Code-cache management: capacity, eviction policy, sharing
    /// scope. The default (unbounded, per-VM) reproduces the paper's
    /// append-only code cache.
    pub code_cache: CodeCacheConfig,
    /// Heap budget in bytes before a GC is triggered.
    pub gc_threshold: u64,
    /// Garbage-collector choice; the default keeps the original
    /// growth-only heap (no barriers, no moving collections).
    pub gc: GcConfig,
    /// Scheduler quantum in bytecodes.
    pub quantum: u32,
    /// Whether to enable per-method profiling (needed to derive the
    /// oracle; small overhead otherwise).
    pub profiling: bool,
    /// Upper bound on executed bytecodes (guards against runaway
    /// programs; `u64::MAX` = unlimited).
    pub max_bytecodes: u64,
    /// Per-tenant fuel budget in bytecodes; `None` = unmetered. Fuel
    /// is deterministic instruction-count metering — never wall
    /// clock — checked before every bytecode, so a run with fuel `F`
    /// traps with [`VmError::FuelExhausted`](crate::VmError) after
    /// exactly `F` bytecodes on every engine configuration. Unlike
    /// [`VmConfig::max_bytecodes`] (a safety rail against runaway
    /// programs), fuel models a serving-tier admission contract and
    /// is settable per job via `Vm::set_fuel`.
    pub fuel: Option<u64>,
    /// picoJava-style folding in the interpreter (Section 4.4): runs
    /// of up to four simple bytecodes (constants, local moves,
    /// arithmetic, stack shuffles) share one dispatch, mitigating the
    /// dispatch jump's target misprediction.
    pub folding: bool,
    /// Harness self-test hook (sabotage): when `Some(n)`, the
    /// generational heap silently drops its `n`-th remembered-set
    /// enrollment — a seeded "missed write barrier" that a correct
    /// collector turns into premature reclamation of a live nursery
    /// object. Used only by the GC differential fuzzer's must-fail CI
    /// job to prove the equivalence layer catches a single lost
    /// barrier. `None` (the default) for every real run.
    pub gc_sabotage_drop_barrier: Option<u64>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            mode: ExecMode::default(),
            sync: SyncKind::default(),
            code_cache: CodeCacheConfig::default(),
            gc_threshold: 24 << 20,
            gc: GcConfig::default(),
            quantum: 200,
            profiling: true,
            max_bytecodes: u64::MAX,
            fuel: None,
            folding: false,
            gc_sabotage_drop_barrier: None,
        }
    }
}

impl VmConfig {
    /// Interpreter-mode configuration.
    pub fn interpreter() -> Self {
        VmConfig {
            mode: ExecMode::Interp,
            ..VmConfig::default()
        }
    }

    /// JIT-mode (translate on first invocation) configuration.
    pub fn jit() -> Self {
        VmConfig {
            mode: ExecMode::Jit(JitPolicy::FirstInvocation),
            ..VmConfig::default()
        }
    }

    /// Register-IR interpreter configuration.
    pub fn ir_interp() -> Self {
        VmConfig {
            mode: ExecMode::IrInterp,
            ..VmConfig::default()
        }
    }

    /// Register-IR JIT (translate on first invocation) configuration.
    pub fn ir_jit() -> Self {
        VmConfig {
            mode: ExecMode::IrJit(JitPolicy::FirstInvocation),
            ..VmConfig::default()
        }
    }

    /// Oracle ("opt") configuration from precomputed decisions.
    pub fn oracle(decisions: OracleDecisions) -> Self {
        VmConfig {
            mode: ExecMode::Jit(JitPolicy::Oracle(decisions)),
            ..VmConfig::default()
        }
    }

    /// Sets the monitor implementation (builder style).
    pub fn with_sync(mut self, sync: SyncKind) -> Self {
        self.sync = sync;
        self
    }

    /// Enables interpreter instruction folding (builder style).
    pub fn with_folding(mut self) -> Self {
        self.folding = true;
        self
    }

    /// Sets the code-cache management configuration (builder style).
    pub fn with_code_cache(mut self, code_cache: CodeCacheConfig) -> Self {
        self.code_cache = code_cache;
        self
    }

    /// Sets a per-tenant fuel budget in bytecodes (builder style).
    /// See [`VmConfig::fuel`] for the semantics.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Sets the garbage-collector configuration (builder style).
    pub fn with_gc(mut self, gc: GcConfig) -> Self {
        self.gc = gc;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels() {
        assert_eq!(ExecMode::Interp.label(), "interp");
        assert_eq!(ExecMode::Jit(JitPolicy::FirstInvocation).label(), "jit");
        assert_eq!(
            ExecMode::Jit(JitPolicy::Oracle(OracleDecisions::default())).label(),
            "opt"
        );
        assert_eq!(ExecMode::Jit(JitPolicy::Threshold(5)).label(), "thresh");
        assert_eq!(
            ExecMode::Jit(JitPolicy::Tiered { t1: 4, t2: 64 }).label(),
            "tiered"
        );
        assert_eq!(ExecMode::IrInterp.label(), "ir-interp");
        assert_eq!(
            ExecMode::IrJit(JitPolicy::FirstInvocation).label(),
            "ir-jit"
        );
        assert!(ExecMode::IrInterp.is_ir());
        assert!(ExecMode::IrJit(JitPolicy::Threshold(2)).is_ir());
        assert!(!ExecMode::Interp.is_ir());
        assert!(!ExecMode::Jit(JitPolicy::FirstInvocation).is_ir());
    }

    #[test]
    fn default_code_cache_is_unbounded_per_vm() {
        let cfg = VmConfig::default();
        assert_eq!(cfg.code_cache, CodeCacheConfig::default());
        assert_eq!(cfg.code_cache.capacity_bytes, u64::MAX);
        assert_eq!(cfg.code_cache.eviction, EvictionPolicy::Unbounded);
        assert_eq!(cfg.code_cache.scope, CacheScope::PerVm);
    }
}
