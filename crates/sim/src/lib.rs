//! # pbw-sim
//!
//! An executable bulk-synchronous machine simulator for the models of the
//! SPAA'97 paper *"Modeling Parallel Bandwidth: Local vs. Global
//! Restrictions"*.
//!
//! Two engines are provided:
//!
//! * [`bsp::BspMachine`] — a message-passing machine. Algorithms run as
//!   closures invoked once per processor per superstep (executed in parallel
//!   with rayon); they read their inbox, mutate their local state, and post
//!   messages to an [`bsp::Outbox`], optionally pinning each message to an
//!   explicit *injection slot* — the knob that globally-limited algorithms
//!   use to stay within the aggregate bandwidth `m`.
//! * [`qsm::QsmMachine`] — a shared-memory machine in the QSM style:
//!   processors issue pipelined read/write requests against a shared array,
//!   values become visible in the next phase, concurrent reads *or* writes
//!   (never both) per location are allowed, and location contention `κ` is
//!   metered.
//!
//! Both engines record an exact [`pbw_models::SuperstepProfile`] for every
//! superstep, so one execution can be priced under BSP(g), BSP(m), QSM(g),
//! QSM(m) and the self-scheduling metric simultaneously (see
//! [`summary::CostSummary`]).
//!
//! ## Design notes
//!
//! * Determinism: superstep closures receive a processor id and may use
//!   [`rng::proc_rng`] for per-processor reproducible randomness; message
//!   delivery order is fixed (by source pid, then send order), independent of
//!   rayon's scheduling. Fault fates ([`hook::DeliveryHook`]) are pure in
//!   the delivery context and *applied* in the fixed delivery order, so
//!   runs — including their trace streams — are byte-identical at every
//!   `PBW_THREADS` setting.
//! * Non-receipt is observable: a processor can branch on an *empty* inbox,
//!   as required by the Section 4.2 ternary broadcast.

pub(crate) mod arena;
pub(crate) mod barrier;
pub mod bsp;
pub mod hook;
pub(crate) mod kernels;
pub mod qsm;
pub mod rng;
pub mod summary;
pub mod timeline;

pub use bsp::{BspMachine, Envelope, MachineCheckpoint, Outbox};
pub use hook::{BatchDests, DeliveryCtx, DeliveryHook, Fate, FaultStats};
pub use pbw_models::FrontierMask;
pub use qsm::{QsmCtx, QsmMachine, Word};
pub use summary::CostSummary;

/// What remains of the measured dense/sparse crossover: nothing to choose.
/// Every superstep and phase runs its post-closure stages over the sender
/// set on epoch-stamped tallies, whichever entry point it came through.
pub mod density {
    /// The crossover factor: 1, the value under which the former
    /// `active * factor <= p` test always picked the sender-set path, which
    /// is now the only one. Kept so run manifests that record the factor
    /// keep their field.
    pub fn crossover_factor() -> usize {
        1
    }
}

/// Processor identifier.
pub type Pid = usize;

/// Largest number of injections any single processor charged to one slot of
/// a superstep. The pipelining rule requires this to be ≤ 1; it is recomputed
/// from the engines' resolved slot assignments for each trace event — rather
/// than assumed — so the conformance suite checks the engine, not itself.
///
/// `pids` restricts the scan to the processors whose slot buffers are live
/// this superstep — the senders (BSP) or the frontier (QSM); other buffers
/// may hold stale assignments from an earlier superstep and must not be
/// read. A pid outside that set has no resolved slots this superstep, so
/// restricting the scan cannot change the maximum.
pub(crate) fn max_slot_multiplicity(resolved: &[Vec<u64>], pids: impl Iterator<Item = Pid>) -> u64 {
    pids.map(|pid| {
        let slots = &resolved[pid];
        {
            let mut sorted = slots.clone();
            sorted.sort_unstable();
            let mut best = 0u64;
            let mut run = 0u64;
            let mut prev = None;
            for &s in &sorted {
                run = if prev == Some(s) { run + 1 } else { 1 };
                best = best.max(run);
                prev = Some(s);
            }
            best
        }
    })
    .max()
    .unwrap_or(0)
}

/// Errors raised by the simulation engines when a program violates model
/// rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A processor attempted two message injections in the same step of a
    /// superstep (the BSP(m) model allows at most one per processor per
    /// step).
    DuplicateSlot { pid: Pid, slot: u64 },
    /// A message was addressed to a processor id `>= p`.
    BadDestination { pid: Pid, dest: Pid },
    /// A QSM phase both read and wrote the same shared location (Section 2
    /// permits concurrent reads or concurrent writes to a location, not
    /// both).
    ReadWriteConflict { addr: usize },
    /// A QSM access was outside the shared address space.
    BadAddress { addr: usize, size: usize },
    /// An active set named a processor id `>= p`.
    BadPid { pid: Pid, p: usize },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::DuplicateSlot { pid, slot } => write!(
                f,
                "processor {pid} injected two messages at step {slot} of one superstep"
            ),
            SimError::BadDestination { pid, dest } => {
                write!(
                    f,
                    "processor {pid} sent a message to nonexistent processor {dest}"
                )
            }
            SimError::ReadWriteConflict { addr } => write!(
                f,
                "shared location {addr} was both read and written in one QSM phase"
            ),
            SimError::BadAddress { addr, size } => {
                write!(f, "shared address {addr} out of bounds (size {size})")
            }
            SimError::BadPid { pid, p } => write!(
                f,
                "active set names processor {pid}, but the machine has {p} processors"
            ),
        }
    }
}

impl std::error::Error for SimError {}
