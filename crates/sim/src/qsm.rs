//! The shared-memory bulk-synchronous machine (QSM style).
//!
//! A [`QsmMachine`] holds `p` processor states plus a shared memory of
//! [`Word`]s. Each [`QsmMachine::phase`] runs a closure once per processor;
//! the closure receives the *values returned by the reads it issued in the
//! previous phase* (QSM semantics: "the value returned by a shared-memory
//! read can only be used in a subsequent phase") and posts new read/write
//! requests to a [`QsmCtx`].
//!
//! Model rules enforced by the engine:
//!
//! * Concurrent reads or concurrent writes to a location within a phase are
//!   allowed; a mix of both on one location is an error
//!   ([`SimError::ReadWriteConflict`]).
//! * Multiple writers to one location are resolved arbitrarily; for
//!   reproducibility this engine deterministically lets the *lowest
//!   processor id* win (a valid instance of the Arbitrary rule).
//! * The maximum location contention `κ` and the per-step request-injection
//!   histogram `m_t` (for the QSM(m) cost metric) are metered exactly. As in
//!   the BSP engine, requests may be pinned to explicit injection slots via
//!   [`QsmCtx::read_at`] / [`QsmCtx::write_at`]; unpinned requests pipeline
//!   into the earliest free slots.

use crate::arena::MsgArena;
use crate::barrier::{resolve_slots_into, FaultMasks, LateQueue};
use crate::hook::{BatchDests, DeliveryHook, Fate, FaultStats};
use crate::kernels::counts_now;
use crate::{Pid, SimError};
use pbw_models::{EpochCounts, FrontierMask, MachineParams, ProfileBuilder, SuperstepProfile};
use pbw_trace::{FaultCounters, TraceEvent, TraceSink, TraceSource};
use rayon::prelude::*;
use std::sync::Arc;

/// A shared-memory word. The paper's Section 5 bounds are sensitive to the
/// word width `w`; 64-bit words match the `w = Θ(lg p)` regime.
pub type Word = i64;

/// Shared-memory address.
pub type Addr = usize;

/// The value delivered to a processor for one read it issued last phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// Address that was read.
    pub addr: Addr,
    /// Value the location held during the read phase.
    pub value: Word,
}

#[derive(Debug, Clone)]
enum Request {
    Read {
        addr: Addr,
        slot: Option<u64>,
    },
    Write {
        addr: Addr,
        value: Word,
        slot: Option<u64>,
    },
}

impl Request {
    fn slot(&self) -> Option<u64> {
        match self {
            Request::Read { slot, .. } | Request::Write { slot, .. } => *slot,
        }
    }
}

/// Per-processor request buffer for one QSM phase.
#[derive(Debug, Default)]
pub struct QsmCtx {
    requests: Vec<Request>,
    work: u64,
    /// Number of `read_at`/`write_at` (explicit-slot) requests since the
    /// last reset.
    explicit: usize,
}

impl QsmCtx {
    /// Issue a shared-memory read; the value arrives next phase, pipelined
    /// into the earliest free injection slot.
    pub fn read(&mut self, addr: Addr) {
        self.requests.push(Request::Read { addr, slot: None });
    }

    /// Issue a read pinned to injection step `slot`.
    pub fn read_at(&mut self, addr: Addr, slot: u64) {
        self.requests.push(Request::Read {
            addr,
            slot: Some(slot),
        });
        self.explicit += 1;
    }

    /// Issue a shared-memory write, pipelined.
    pub fn write(&mut self, addr: Addr, value: Word) {
        self.requests.push(Request::Write {
            addr,
            value,
            slot: None,
        });
    }

    /// Issue a write pinned to injection step `slot`.
    pub fn write_at(&mut self, addr: Addr, value: Word, slot: u64) {
        self.requests.push(Request::Write {
            addr,
            value,
            slot: Some(slot),
        });
        self.explicit += 1;
    }

    /// Charge `w` units of local computation.
    pub fn charge_work(&mut self, w: u64) {
        self.work += w;
    }

    /// Empty the context for the next phase, keeping its capacity.
    fn reset(&mut self) {
        self.requests.clear();
        self.work = 0;
        self.explicit = 0;
    }

    fn counts(&self) -> (u64, u64) {
        let mut r = 0;
        let mut w = 0;
        for req in &self.requests {
            match req {
                Request::Read { .. } => r += 1,
                Request::Write { .. } => w += 1,
            }
        }
        (r, w)
    }
}

/// Report for one executed QSM phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Exact cost profile of the phase.
    pub profile: SuperstepProfile,
    /// Number of read requests served.
    pub reads: u64,
    /// Number of write requests applied (post-arbitration writes count once
    /// per request, not per surviving value).
    pub writes: u64,
}

/// A simulated `p`-processor QSM machine with `size` shared-memory words.
///
/// ```
/// use pbw_models::MachineParams;
/// use pbw_sim::QsmMachine;
///
/// let mp = MachineParams::from_gap(4, 2, 2);
/// let mut qsm: QsmMachine<i64> = QsmMachine::new(mp, 8, |_| 0);
/// // Phase 1: everyone writes its own cell (exclusive, κ = 1)…
/// qsm.phase(|pid, _s, _res, ctx| ctx.write(pid, 10 * pid as i64));
/// // Phase 2: …then reads its neighbour's; values arrive next phase.
/// qsm.phase(|pid, _s, _res, ctx| ctx.read((pid + 1) % 4));
/// qsm.phase(|_pid, s, res, _ctx| *s = res[0].value);
/// assert_eq!(qsm.states(), &[10, 20, 30, 0]);
/// assert_eq!(qsm.profiles()[0].max_contention, 1);
/// ```
pub struct QsmMachine<S> {
    params: MachineParams,
    shared: Vec<Word>,
    states: Vec<S>,
    /// Read results awaiting the next phase, segmented per processor.
    read_results: MsgArena<ReadResult>,
    /// The previous phase's arena, recycled by swapping (see
    /// [`crate::bsp::BspMachine`]'s double-buffered inboxes).
    spare: MsgArena<ReadResult>,
    /// Per-processor request contexts, reset (capacity kept) every phase.
    ctxs: Vec<QsmCtx>,
    /// Per-processor resolved injection slots, refilled every phase.
    resolved: Vec<Vec<u64>>,
    /// Per-processor precomputed fates (hooked machines only).
    fates: Vec<Vec<Fate>>,
    /// Stalled and crashed processors this phase (read only behind
    /// `hooked`).
    faults: FaultMasks,
    /// Contention audit scratch: epoch-stamped readers/writers per
    /// location, reset in O(1) and walked via their dirty lists.
    readers: EpochCounts,
    writers: EpochCounts,
    /// The ascending frontier every pass after the closure pass walks:
    /// the contexts that issued a request or charged work (dense), or the
    /// pids the sparse closure pass visited.
    frontier: Vec<Pid>,
    /// The sparse path's frontier mask: declared active set OR-ed
    /// word-at-a-time with the arena's touched mask — insertion is the
    /// dedup, iteration the sort.
    frontier_mask: FrontierMask,
    /// Distinct-address scratch for the per-processor contention audit.
    audit_reads: Vec<Addr>,
    audit_writes: Vec<Addr>,
    /// Write-arbitration scratch: `(addr, pid, value)`.
    pending_writes: Vec<(Addr, Pid, Word)>,
    /// Profile accumulator, snapshot-and-reset every phase.
    builder: ProfileBuilder,
    profiles: Vec<SuperstepProfile>,
    phase: usize,
    sink: Arc<dyn TraceSink>,
    trace_label: String,
    hook: Option<Arc<dyn DeliveryHook>>,
    /// Read results the memory system will hand back in a later phase
    /// (delayed responses, duplicate copies).
    late: LateQueue<ReadResult>,
    fault_stats: FaultStats,
}

impl<S: Send + Sync> QsmMachine<S> {
    /// Create a machine with `params.p` processors and `size` words of
    /// shared memory (zero-initialized).
    ///
    /// The machine captures the process-wide trace sink
    /// ([`pbw_trace::global_sink`]) at construction; use
    /// [`QsmMachine::set_sink`] to attach a specific sink instead.
    pub fn new(params: MachineParams, size: usize, init: impl FnMut(Pid) -> S) -> Self {
        let p = params.p;
        let states: Vec<S> = (0..p).map(init).collect();
        Self {
            params,
            shared: vec![0; size],
            states,
            read_results: MsgArena::new(p),
            spare: MsgArena::new(p),
            ctxs: std::iter::repeat_with(QsmCtx::default).take(p).collect(),
            resolved: vec![Vec::new(); p],
            fates: Vec::new(),
            faults: FaultMasks::new(p),
            readers: EpochCounts::new(size),
            writers: EpochCounts::new(size),
            frontier: Vec::new(),
            frontier_mask: FrontierMask::new(p),
            audit_reads: Vec::new(),
            audit_writes: Vec::new(),
            pending_writes: Vec::new(),
            builder: ProfileBuilder::new(),
            profiles: Vec::new(),
            phase: 0,
            sink: pbw_trace::global_sink(),
            trace_label: String::new(),
            hook: None,
            late: LateQueue::default(),
            fault_stats: FaultStats::default(),
        }
    }

    /// Attach a trace sink, replacing the one captured at construction.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) -> &mut Self {
        self.sink = sink;
        self
    }

    /// Attach a fault-injection hook (see [`crate::hook`]).
    ///
    /// QSM fault semantics: a [`Fate::Drop`] discards the request (a read
    /// returns no result — non-receipt is observable — and a write is never
    /// applied); [`Fate::Delay`] holds a read's *response* for `k` extra
    /// phases (the value is still the one read in the request phase — the
    /// memory served the read, the network delayed the reply); a delayed
    /// write is applied on time (the memory system absorbs it in order);
    /// [`Fate::Duplicate`] hands a read result back twice (a duplicated
    /// write is idempotent and treated as normal); [`Fate::Displace`]
    /// shifts the request's injection slot. All fates consume the request's
    /// injection slot and bandwidth.
    ///
    /// Crash-stop semantics ([`DeliveryHook::crashed`]): a crashed
    /// processor's closure is skipped (it issues no requests), its unseen
    /// read results evaporate uncharged (they were already counted
    /// `delivered`), and any delayed response falling due while it is down
    /// is destroyed and charged to the ledger's `crashed` column. Crash
    /// overrides stall — nothing is retained across a crashed phase.
    pub fn set_delivery_hook(&mut self, hook: Arc<dyn DeliveryHook>) -> &mut Self {
        self.hook = Some(hook);
        self
    }

    /// Remove any fault-injection hook (in-flight delayed responses still
    /// arrive on schedule).
    pub fn clear_delivery_hook(&mut self) -> &mut Self {
        self.hook = None;
        self
    }

    /// The running fault ledger (see [`FaultStats`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Read responses currently held inside the memory system.
    pub fn faults_in_flight(&self) -> u64 {
        self.fault_stats.in_flight
    }

    /// Label stamped on every trace event this machine emits.
    pub fn set_trace_label(&mut self, label: impl Into<String>) -> &mut Self {
        self.trace_label = label.into();
        self
    }

    /// Machine parameters.
    pub fn params(&self) -> MachineParams {
        self.params
    }

    /// The shared memory (for test setup and result extraction — reading it
    /// directly is free and does not perturb cost accounting).
    pub fn shared(&self) -> &[Word] {
        &self.shared
    }

    /// Mutable shared memory (setup only).
    pub fn shared_mut(&mut self) -> &mut [Word] {
        &mut self.shared
    }

    /// Processor states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable processor states (setup only).
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// One processor's state.
    pub fn state(&self, pid: Pid) -> &S {
        &self.states[pid]
    }

    /// Profiles of all executed phases.
    pub fn profiles(&self) -> &[SuperstepProfile] {
        &self.profiles
    }

    /// Number of phases executed.
    pub fn phase_index(&self) -> usize {
        self.phase
    }

    /// Total run cost under any cost model.
    pub fn cost(&self, model: &dyn pbw_models::CostModel) -> f64 {
        model.run_cost(&self.profiles)
    }

    /// Execute one phase, panicking on model-rule violations.
    pub fn phase<F>(&mut self, f: F) -> PhaseReport
    where
        F: Fn(Pid, &mut S, &[ReadResult], &mut QsmCtx) + Sync,
    {
        self.try_phase(f)
            .unwrap_or_else(|e| panic!("QSM phase failed: {e}"))
    }

    /// Execute one phase, returning model-rule violations as errors.
    pub fn try_phase<F>(&mut self, f: F) -> Result<PhaseReport, SimError>
    where
        F: Fn(Pid, &mut S, &[ReadResult], &mut QsmCtx) + Sync,
    {
        self.phase_core(None, f)
    }

    /// Execute one phase over an explicit active set, panicking on
    /// model-rule violations. See [`QsmMachine::try_phase_active`].
    pub fn phase_active<F>(&mut self, active: &[Pid], f: F) -> PhaseReport
    where
        F: Fn(Pid, &mut S, &[ReadResult], &mut QsmCtx) + Sync,
    {
        self.try_phase_active(active, f)
            .unwrap_or_else(|e| panic!("QSM phase failed: {e}"))
    }

    /// Execute one phase visiting only the *frontier*: the declared
    /// `active` pids plus every pid still holding undelivered read results
    /// (retained after a stall, or released late by a `Delay`/`Duplicate`
    /// fate). Phase cost is O(frontier + requests) instead of O(p).
    ///
    /// The run is byte-identical to [`QsmMachine::try_phase`] — same
    /// states, shared memory, profiles, fault ledger, and trace events —
    /// provided `f` is a *no-op* for every pid outside `active` whose
    /// result inbox is empty: it must not mutate that pid's state, post
    /// requests, or charge work. The frontier is visited in ascending pid
    /// order, which replays the canonical serve order, and a skipped pid
    /// contributes only zero-valued observations that cannot move any
    /// profile maximum.
    ///
    /// Two caveats: a machine with a delivery hook consults the stall and
    /// crash masks, filled once per phase via
    /// [`DeliveryHook::fill_fault_masks`] and scanned word-at-a-time —
    /// O(fault-words), not O(p) — and an enabled trace sink materializes
    /// dense per-processor vectors (zeroed rows filled O(frontier);
    /// tracing is the observability path).
    ///
    /// # Errors
    /// Besides the model-rule violations [`QsmMachine::try_phase`]
    /// reports, returns [`SimError::BadPid`] if `active` names a pid `>= p`.
    /// That check runs before anything else, so a rejected call leaves the
    /// machine exactly as it was.
    pub fn try_phase_active<F>(&mut self, active: &[Pid], f: F) -> Result<PhaseReport, SimError>
    where
        F: Fn(Pid, &mut S, &[ReadResult], &mut QsmCtx) + Sync,
    {
        self.phase_core(Some(active), f)
    }

    /// Shared phase body. Only the closure pass differs: `active = None`
    /// runs all `p` processors in parallel and then takes as the frontier
    /// every context that issued a request or charged work; `Some(pids)`
    /// runs the sorted frontier sequentially. Every later pass walks that
    /// frontier in ascending pid order on epoch-stamped tallies.
    fn phase_core<F>(&mut self, active: Option<&[Pid]>, f: F) -> Result<PhaseReport, SimError>
    where
        F: Fn(Pid, &mut S, &[ReadResult], &mut QsmCtx) + Sync,
    {
        let p = self.params.p;
        let size = self.shared.len();
        let step = self.phase as u64;
        if let Some(&pid) = active.and_then(|set| set.iter().find(|&&pid| pid >= p)) {
            return Err(SimError::BadPid { pid, p });
        }
        // Rotate the arenas: `spare` becomes the read side (last phase's
        // responses), and the arena the previous phase read from is cleared
        // for refill. A rejected phase leaves `read_results` cleared — its
        // in-flight responses are lost but the machine stays runnable.
        std::mem::swap(&mut self.read_results, &mut self.spare);
        self.read_results.clear();

        // The stall/crash step's masks (see `FaultMasks`): a stalled
        // processor's undelivered read results are re-presented next phase.
        // Unhooked machines never read the masks (every use below is
        // guarded by `hooked`).
        let hook = self.hook.clone();
        let hooked = hook.is_some();
        if let Some(h) = &hook {
            self.faults.fill(h.as_ref(), step);
        }

        // Run the processors, each filling its recycled context, and
        // collect the ascending frontier every later pass walks. Contexts
        // outside it are empty (dense) or stale from an earlier phase
        // (sparse); no later pass reads them.
        self.frontier.clear();
        match active {
            None => {
                let f = &f;
                let faults = &self.faults;
                let spare = &self.spare;
                let _: Vec<()> = self
                    .states
                    .par_iter_mut()
                    .zip(self.ctxs.par_iter_mut())
                    .enumerate()
                    .map(|(pid, (state, ctx))| {
                        ctx.reset();
                        if !(hooked && faults.skips(pid)) {
                            f(pid, state, spare.inbox(pid), ctx);
                        }
                    })
                    .collect();
                let ctxs = &self.ctxs;
                self.frontier.extend(
                    (0..p).filter(|&pid| !ctxs[pid].requests.is_empty() || ctxs[pid].work != 0),
                );
            }
            Some(declared) => {
                // The declared pids plus every pid with read results to
                // consume (`spare.touched()` — retained or late responses
                // landed there last phase). The mask OR is the dedup and
                // its ascending-pid unload the sort.
                self.frontier_mask.clear();
                for &pid in declared {
                    self.frontier_mask.insert(pid);
                }
                self.frontier_mask.union_with(self.spare.touched());
                self.frontier_mask.push_to(&mut self.frontier);
                for i in 0..self.frontier.len() {
                    let pid = self.frontier[i];
                    self.ctxs[pid].reset();
                    if !(hooked && self.faults.skips(pid)) {
                        f(
                            pid,
                            &mut self.states[pid],
                            self.spare.inbox(pid),
                            &mut self.ctxs[pid],
                        );
                    }
                }
            }
        }

        // Validate addresses and resolve per-processor injection slots into
        // the recycled slot buffers.
        for &pid in &self.frontier {
            for req in &self.ctxs[pid].requests {
                let addr = match req {
                    Request::Read { addr, .. } | Request::Write { addr, .. } => *addr,
                };
                if addr >= size {
                    return Err(SimError::BadAddress { addr, size });
                }
            }
        }
        for &pid in &self.frontier {
            let ctx = &self.ctxs[pid];
            let claims = ctx.requests.iter().map(Request::slot);
            let slots = &mut self.resolved[pid];
            resolve_slots_into(pid, claims, ctx.explicit != 0, slots, true)?;
        }

        // Fates are pure in `(phase, pid, msg_idx, slot)`, so they are
        // *computed* here; the sequential serve loop below only *applies*
        // them, preserving the fixed order the ledger, late-response
        // queue, and traces are defined by.
        if let Some(h) = &hook {
            if self.fates.len() != p {
                self.fates.resize_with(p, Vec::new);
            }
            for &pid in &self.frontier {
                let slots = &self.resolved[pid];
                let fates = &mut self.fates[pid];
                fates.clear();
                // Every request in a QSM phase belongs to the requesting
                // processor, so the batch sees one uniform destination.
                h.fate_batch(step, pid, BatchDests::Uniform(pid), slots, fates);
            }
        }

        // Contention audit: readers and writers per location, counting each
        // processor once per distinct address (the paper counts processors
        // per location). The distinct-address scratch is recycled, so the
        // audit is allocation-free at steady state, and the epoch-stamped
        // tallies make it cost O(frontier requests) rather than O(memory
        // size). Every conflict check happens
        // before anything is recorded into the persistent profile builder,
        // so a rejected phase leaves it untouched.
        self.readers.reset();
        self.writers.reset();
        for i in 0..self.frontier.len() {
            let pid = self.frontier[i];
            self.audit_reads.clear();
            self.audit_writes.clear();
            for req in &self.ctxs[pid].requests {
                match req {
                    Request::Read { addr, .. } => self.audit_reads.push(*addr),
                    Request::Write { addr, .. } => self.audit_writes.push(*addr),
                }
            }
            self.audit_reads.sort_unstable();
            self.audit_reads.dedup();
            self.audit_writes.sort_unstable();
            self.audit_writes.dedup();
            for &addr in &self.audit_reads {
                self.readers.add(addr, 1);
            }
            for &addr in &self.audit_writes {
                self.writers.add(addr, 1);
            }
        }
        // Report the *lowest* conflicting address. The touched mask already
        // iterates ascending, but keep the explicit minimum on the (cold)
        // conflict path so the contract doesn't lean on iteration order.
        let mut conflict: Option<Addr> = None;
        for addr in self.readers.touched().iter() {
            if self.writers.get(addr) > 0 {
                conflict = Some(conflict.map_or(addr, |c| c.min(addr)));
            }
        }
        if let Some(addr) = conflict {
            return Err(SimError::ReadWriteConflict { addr });
        }

        // From here on everything is sequential and deterministic. Borrow
        // the machine's parts individually so the serve loop can fill the
        // arena while queueing late responses.
        let Self {
            ref params,
            ref mut shared,
            ref mut read_results,
            ref spare,
            ref ctxs,
            ref resolved,
            ref fates,
            ref faults,
            ref readers,
            ref writers,
            ref frontier,
            ref mut pending_writes,
            ref mut builder,
            ref mut profiles,
            phase: ref mut phase_idx,
            ref sink,
            ref trace_label,
            ref mut late,
            ref mut fault_stats,
            ..
        } = *self;

        // κ only feeds a maximum, so walking the touched masks is
        // equivalent to an ascending scan of every address.
        for addr in readers.touched().iter() {
            builder.record_contention(readers.get(addr).max(writers.get(addr)));
        }
        for addr in writers.touched().iter() {
            if readers.get(addr) == 0 {
                builder.record_contention(writers.get(addr));
            }
        }

        let mut counters = FaultCounters::default();
        let masks = hooked.then_some(faults);

        // Counting pass: the results stalled processors retain (crash
        // overrides stall: a down processor retains nothing, its unseen
        // results evaporate uncharged), the reads served now by fate, and
        // the responses the memory system is due to release this phase
        // (queued by earlier Delay/Duplicate fates).
        if let Some(m) = masks {
            m.charge_and_count_retained(spare, read_results, fault_stats, &mut counters);
        }
        for &pid in frontier.iter() {
            let served = ctxs[pid]
                .requests
                .iter()
                .enumerate()
                .filter(|&(i, req)| {
                    matches!(req, Request::Read { .. }) && (!hooked || counts_now(fates[pid][i]))
                })
                .count();
            read_results.count(pid, served);
        }
        let due = late.pop_due();
        LateQueue::count_due(&due, masks, read_results);
        read_results.begin_counted();
        // Retained results go ahead of this phase's serves.
        if let Some(m) = masks {
            m.place_retained(spare, read_results);
        }

        // Serve reads against the pre-phase memory; collect writes into
        // (addr, pid, value) for min-pid arbitration per address. Late
        // responses land after this phase's on-time serves.
        pending_writes.clear();
        let (mut total_reads, total_writes) = serve_pass(
            frontier,
            ctxs,
            resolved,
            fates,
            hooked,
            shared,
            read_results,
            pending_writes,
            builder,
            late,
            fault_stats,
            &mut counters,
        );
        total_reads += late.land_due(due, masks, read_results, fault_stats, &mut counters);
        read_results.finish();

        // Arbitrary-rule write resolution: deterministic min-pid winner.
        // Sort by (addr, pid) and keep the first writer per address.
        pending_writes.sort_unstable_by_key(|&(addr, pid, _)| (addr, pid));
        let mut last_addr = usize::MAX;
        for &(addr, _pid, value) in pending_writes.iter() {
            if addr != last_addr {
                shared[addr] = value;
                last_addr = addr;
            }
        }

        let profile = builder.snapshot_reset();
        if sink.enabled() {
            // The trace contract is dense per-processor vectors: zeroed rows
            // filled from the frontier / touched mask, so beyond the
            // unavoidable O(p) allocation the fill itself is O(frontier).
            let mut per_proc_sent = vec![0u64; p];
            for &pid in frontier.iter() {
                let (r_i, w_i) = ctxs[pid].counts();
                per_proc_sent[pid] = r_i + w_i;
            }
            let mut per_proc_recv = vec![0u64; p];
            for pid in read_results.touched().iter() {
                per_proc_recv[pid] = read_results.len(pid) as u64;
            }
            let mut ev = TraceEvent::for_superstep(
                TraceSource::Qsm,
                trace_label.clone(),
                step,
                *params,
                profile.clone(),
                per_proc_sent,
                per_proc_recv,
                crate::max_slot_multiplicity(resolved, frontier.iter().copied()),
                total_reads + total_writes,
            );
            if hooked {
                ev = ev.with_faults(counters);
            }
            sink.record(ev);
        }
        profiles.push(profile.clone());
        *phase_idx += 1;
        Ok(PhaseReport {
            profile,
            reads: total_reads,
            writes: total_writes,
        })
    }
}

/// The sequential serve loop: visit the frontier in ascending pid order,
/// record each context's memory-op and work observations, then apply each
/// request's (precomputed) fate — serving reads against the pre-phase
/// memory and collecting writes for arbitration. Returns
/// `(reads_served_on_time, writes_collected)`. A pid outside the frontier
/// issued no requests, so skipping it drops only `record_memory_ops(0, 0)`
/// / `record_work(0)` observations, which cannot move any profile maximum.
#[allow(clippy::too_many_arguments)]
fn serve_pass(
    frontier: &[Pid],
    ctxs: &[QsmCtx],
    resolved: &[Vec<u64>],
    fates: &[Vec<Fate>],
    hooked: bool,
    shared: &[Word],
    read_results: &mut MsgArena<ReadResult>,
    pending_writes: &mut Vec<(Addr, Pid, Word)>,
    builder: &mut ProfileBuilder,
    late: &mut LateQueue<ReadResult>,
    fault_stats: &mut FaultStats,
    counters: &mut FaultCounters,
) -> (u64, u64) {
    let mut total_reads = 0u64;
    let mut total_writes = 0u64;
    for &pid in frontier {
        let ctx = &ctxs[pid];
        let (r_i, w_i) = ctx.counts();
        builder.record_memory_ops(r_i, w_i);
        builder.record_work(ctx.work);
        for (msg_idx, (req, &slot)) in ctx.requests.iter().zip(resolved[pid].iter()).enumerate() {
            let fate = if hooked {
                fates[pid][msg_idx]
            } else {
                Fate::Deliver
            };
            fault_stats.injected += 1;
            let charged_slot = match fate {
                Fate::Displace(d) => {
                    fault_stats.displaced += 1;
                    counters.displaced += 1;
                    slot + d
                }
                _ => slot,
            };
            builder.record_injection(charged_slot);
            if fate == Fate::Drop {
                fault_stats.dropped += 1;
                counters.dropped += 1;
                continue;
            }
            match req {
                Request::Read { addr, .. } => {
                    let result = ReadResult {
                        addr: *addr,
                        value: shared[*addr],
                    };
                    match fate {
                        Fate::Delay(k) => {
                            late.push(k, pid, result, fault_stats);
                            fault_stats.delayed += 1;
                            counters.delayed += 1;
                        }
                        Fate::Duplicate => {
                            read_results.place(pid, result);
                            fault_stats.delivered += 1;
                            late.push(1, pid, result, fault_stats);
                            fault_stats.duplicated += 1;
                            counters.duplicated += 1;
                            total_reads += 1;
                        }
                        _ => {
                            read_results.place(pid, result);
                            fault_stats.delivered += 1;
                            total_reads += 1;
                        }
                    }
                }
                Request::Write { addr, value, .. } => {
                    // Delayed/duplicated writes are absorbed in order by
                    // the memory system (see
                    // [`QsmMachine::set_delivery_hook`]).
                    pending_writes.push((*addr, pid, *value));
                    fault_stats.delivered += 1;
                    total_writes += 1;
                }
            }
        }
    }
    (total_reads, total_writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::DeliveryCtx;
    use pbw_models::{PenaltyFn, QsmG, QsmM};

    fn params(p: usize) -> MachineParams {
        MachineParams::from_gap(p, 4, 8)
    }

    #[test]
    fn read_values_arrive_next_phase() {
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 16, |_| -1);
        m.shared_mut()[3] = 42;
        m.phase(|_pid, _s, _res, ctx| ctx.read(3));
        m.phase(|_pid, s, res, _ctx| {
            assert_eq!(res.len(), 1);
            assert_eq!(res[0], ReadResult { addr: 3, value: 42 });
            *s = res[0].value;
        });
        assert_eq!(m.states(), &[42, 42, 42, 42]);
    }

    #[test]
    fn concurrent_reads_meter_contention() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|_pid, _s, _res, ctx| ctx.read(0));
        assert_eq!(m.profiles()[0].max_contention, 4);
    }

    #[test]
    fn exclusive_reads_have_unit_contention() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|pid, _s, _res, ctx| ctx.read(pid));
        assert_eq!(m.profiles()[0].max_contention, 1);
    }

    #[test]
    fn min_pid_wins_concurrent_write() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|pid, _s, _res, ctx| ctx.write(5, pid as Word + 100));
        assert_eq!(m.shared()[5], 100);
        assert_eq!(m.profiles()[0].max_contention, 4);
    }

    #[test]
    fn read_write_conflict_rejected() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        let err = m
            .try_phase(|pid, _s, _res, ctx| {
                if pid == 0 {
                    ctx.read(2);
                } else {
                    ctx.write(2, 9);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::ReadWriteConflict { addr: 2 });
    }

    #[test]
    fn bad_address_rejected() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        let err = m.try_phase(|_pid, _s, _res, ctx| ctx.read(8)).unwrap_err();
        assert_eq!(err, SimError::BadAddress { addr: 8, size: 8 });
    }

    #[test]
    fn reads_see_pre_phase_values() {
        // Reads and writes in the same phase must touch different locations;
        // a read concurrent with a write to a *different* location sees the
        // old value of its own location trivially. Check sequencing across
        // phases instead: a write in phase 1 is visible to a phase-2 read.
        let mut m: QsmMachine<Word> = QsmMachine::new(MachineParams::from_gap(2, 2, 8), 4, |_| 0);
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.write(1, 7);
            }
        });
        m.phase(|pid, _s, _res, ctx| {
            if pid == 1 {
                ctx.read(1);
            }
        });
        m.phase(|pid, s, res, _ctx| {
            if pid == 1 {
                *s = res[0].value;
            }
        });
        assert_eq!(*m.state(1), 7);
    }

    #[test]
    fn qsm_g_prices_pipelined_requests() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 64, |_| ());
        m.phase(|pid, _s, _res, ctx| {
            for k in 0..6 {
                ctx.read(pid * 6 + k);
            }
        });
        // h = 6, g = 4 → phase cost 24 under QSM(g), κ = 1.
        let qsm_g = QsmG { g: 4 };
        assert_eq!(m.cost(&qsm_g), 24.0);
        // QSM(m) with m = 1: injections are 4 per step for 6 steps →
        // c_m = Σ f(4) with m=1 exp = 6·e^3.
        let qsm_m = QsmM {
            m: 1,
            penalty: PenaltyFn::Exponential,
        };
        let expect = 6.0 * (3.0f64).exp();
        assert!((m.cost(&qsm_m) - expect).abs() < 1e-9);
    }

    #[test]
    fn explicit_slots_stagger_requests() {
        let p = 8;
        let mut m: QsmMachine<()> = QsmMachine::new(params(p), 64, |_| ());
        // Stagger: processor i injects its single read at slot i — never more
        // than 1 request per machine step.
        m.phase(|pid, _s, _res, ctx| ctx.read_at(pid, pid as u64));
        let prof = &m.profiles()[0];
        assert_eq!(prof.injections, vec![1; p]);
        let qsm_m = QsmM {
            m: 1,
            penalty: PenaltyFn::Exponential,
        };
        assert_eq!(m.cost(&qsm_m), 8.0); // c_m = 8 slots · charge 1
    }

    #[test]
    fn duplicate_slot_rejected() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        let err = m
            .try_phase(|pid, _s, _res, ctx| {
                if pid == 1 {
                    ctx.read_at(0, 3);
                    ctx.write_at(1, 5, 3);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::DuplicateSlot { pid: 1, slot: 3 });
    }

    #[test]
    fn duplicate_slots_report_the_lowest_collision() {
        // Two colliding pairs, the higher slot colliding first in request
        // order: the error names the lowest duplicated slot, as BSP does.
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        let err = m
            .try_phase(|pid, _s, _res, ctx| {
                if pid == 1 {
                    ctx.read_at(0, 9);
                    ctx.write_at(1, 5, 4);
                    ctx.read_at(2, 9);
                    ctx.write_at(3, 5, 4);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::DuplicateSlot { pid: 1, slot: 4 });
    }

    #[test]
    fn repeat_read_same_location_counts_once_for_contention() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(0);
                ctx.read(0);
            }
        });
        // One processor reading a location twice is contention 1 (paper
        // counts processors), though h = 2.
        assert_eq!(m.profiles()[0].max_contention, 1);
        assert_eq!(m.profiles()[0].max_reads, 2);
    }

    #[test]
    fn trace_events_cover_phases() {
        use pbw_trace::RecordingSink;
        let sink = Arc::new(RecordingSink::new());
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 16, |_| 0);
        m.set_sink(sink.clone()).set_trace_label("neighbour-read");
        m.phase(|pid, _s, _res, ctx| ctx.write(pid, pid as Word));
        m.phase(|pid, _s, _res, ctx| ctx.read((pid + 1) % 4));
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].source, TraceSource::Qsm);
        assert_eq!(events[0].superstep, 0);
        assert_eq!(events[0].per_proc_sent, vec![1, 1, 1, 1]);
        assert_eq!(events[0].delivered, 4);
        // Reads issued in phase 1 are delivered during that phase's serve
        // loop, so the phase-1 event sees 4 read results.
        assert_eq!(events[1].per_proc_recv, vec![1, 1, 1, 1]);
        assert_eq!(events[1].profile, m.profiles()[1]);
        assert_eq!(events[1].max_proc_slot_injections, 1);
    }

    struct DropReads;
    impl crate::hook::DeliveryHook for DropReads {
        fn fate(&self, _ctx: &DeliveryCtx) -> Fate {
            Fate::Drop
        }
    }

    #[test]
    fn dropped_request_returns_no_result_and_writes_nothing() {
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| -1);
        m.shared_mut()[0] = 42;
        m.set_delivery_hook(Arc::new(DropReads));
        let r = m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(0);
            } else {
                ctx.write(pid, 7);
            }
        });
        assert_eq!((r.reads, r.writes), (0, 0));
        // All four requests still consumed injection slots.
        assert_eq!(m.profiles()[0].injections.iter().sum::<u64>(), 4);
        m.phase(|pid, _s, res, _ctx| {
            if pid == 0 {
                assert!(
                    res.is_empty(),
                    "dropped read must be observable as non-receipt"
                );
            }
        });
        assert_eq!(&m.shared()[1..4], &[0, 0, 0]);
        let stats = m.fault_stats();
        assert_eq!(stats.dropped, 4);
        assert!(stats.conserved());
    }

    struct DelayReads(u32);
    impl crate::hook::DeliveryHook for DelayReads {
        fn fate(&self, _ctx: &DeliveryCtx) -> Fate {
            Fate::Delay(self.0)
        }
    }

    #[test]
    fn delayed_read_response_carries_the_request_phase_value() {
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| 0);
        m.shared_mut()[3] = 10;
        m.set_delivery_hook(Arc::new(DelayReads(1)));
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(3);
            }
        });
        assert_eq!(m.faults_in_flight(), 1);
        // Overwrite the location while the response is in flight: the reply
        // must still carry the value served at request time.
        m.phase(|pid, _s, res, ctx| {
            assert!(res.is_empty());
            if pid == 1 {
                ctx.write(3, 99);
            }
        });
        // Delay(1) = one extra phase: requested in phase 0, normally seen in
        // phase 1, actually seen in phase 2.
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 {
                assert_eq!(res, &[ReadResult { addr: 3, value: 10 }]);
                *s = res[0].value;
            }
        });
        assert_eq!(*m.state(0), 10);
        assert_eq!(m.faults_in_flight(), 0);
        assert!(m.fault_stats().conserved());
    }

    #[test]
    fn stalled_qsm_processor_keeps_its_read_results() {
        struct StallP0Phase1;
        impl crate::hook::DeliveryHook for StallP0Phase1 {
            fn stalled(&self, phase: u64, pid: Pid) -> bool {
                pid == 0 && phase == 1
            }
        }
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| 0);
        m.shared_mut()[5] = 77;
        m.set_delivery_hook(Arc::new(StallP0Phase1));
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(5);
            }
        });
        // Phase 1: pid 0 is stalled and never sees the result…
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 {
                *s = res.first().map_or(-1, |r| r.value);
            }
        });
        assert_eq!(*m.state(0), 0, "stalled closure must not run");
        // …phase 2: the retained result is finally consumed.
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 {
                *s = res[0].value;
            }
        });
        assert_eq!(*m.state(0), 77);
        assert_eq!(m.fault_stats().stalled_steps, 1);
    }

    #[test]
    fn crashed_qsm_processor_issues_nothing_and_loses_unseen_results() {
        struct CrashP0Phase1;
        impl crate::hook::DeliveryHook for CrashP0Phase1 {
            fn crashed(&self, phase: u64, pid: Pid) -> bool {
                pid == 0 && phase == 1
            }
        }
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| 0);
        m.shared_mut()[5] = 77;
        m.set_delivery_hook(Arc::new(CrashP0Phase1));
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(5);
            }
        });
        // Phase 1: pid 0 is down. Its unseen result evaporates (no stall-
        // style retention) and its closure never runs.
        m.phase(|pid, s, res, ctx| {
            if pid == 0 {
                *s = res.first().map_or(-1, |r| r.value);
                ctx.read(5);
            }
        });
        assert_eq!(*m.state(0), 0, "crashed closure must not run");
        // Phase 2: pid 0 is back with nothing — the result is gone for good
        // and no request was issued on its behalf while down.
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 {
                *s = res.first().map_or(-1, |r| r.value);
            }
        });
        assert_eq!(*m.state(0), -1);
        let stats = m.fault_stats();
        assert_eq!(stats.crash_steps, 1);
        assert_eq!(stats.crashed, 0, "evaporated results are not re-charged");
        assert_eq!((stats.injected, stats.delivered), (1, 1));
        assert!(stats.conserved(), "ledger {stats:?}");
    }

    #[test]
    fn delayed_response_due_at_a_crashed_processor_is_destroyed() {
        struct DelayIntoCrash;
        impl crate::hook::DeliveryHook for DelayIntoCrash {
            fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                if ctx.superstep == 0 {
                    Fate::Delay(1)
                } else {
                    Fate::Deliver
                }
            }
            fn crashed(&self, phase: u64, pid: Pid) -> bool {
                // Phase 1 is where the Delay(1) response is released back
                // to pid 0 — the custody-transfer point.
                pid == 0 && phase == 1
            }
        }
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| 0);
        m.shared_mut()[3] = 10;
        m.set_delivery_hook(Arc::new(DelayIntoCrash));
        m.phase(|pid, _s, _res, ctx| {
            if pid == 0 {
                ctx.read(3);
            }
        });
        assert_eq!(m.faults_in_flight(), 1);
        m.phase(|_pid, _s, _res, _ctx| {});
        // The delayed response fell due exactly while pid 0 was down: it is
        // destroyed in the network and charged crashed.
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 {
                *s = res.first().map_or(-1, |r| r.value);
            }
        });
        m.phase(|pid, s, res, _ctx| {
            if pid == 0 && !res.is_empty() {
                *s = res[0].value;
            }
        });
        // Phase 2 observed an empty result inbox (the map_or default):
        // the destroyed response never arrived, and never will.
        assert_eq!(*m.state(0), -1, "destroyed response must never arrive");
        let stats = m.fault_stats();
        assert_eq!(stats.crashed, 1);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.delivered, 0);
        assert!(stats.conserved(), "ledger {stats:?}");
    }

    #[test]
    fn sparse_and_dense_qsm_agree_under_crashes() {
        struct CrashP1;
        impl crate::hook::DeliveryHook for CrashP1 {
            fn crashed(&self, phase: u64, pid: Pid) -> bool {
                pid == 1 && phase == 1
            }
        }
        let actors = [1usize, 5];
        let program = |pid: Pid, s: &mut Word, res: &[ReadResult], ctx: &mut QsmCtx, ph: usize| {
            if let Some(r) = res.first() {
                *s = r.value;
            }
            if actors.contains(&pid) && ph < 2 {
                ctx.read(pid);
            }
        };
        let mut dense: QsmMachine<Word> = QsmMachine::new(params(8), 16, |_| 0);
        dense.set_delivery_hook(Arc::new(CrashP1));
        dense.shared_mut()[1] = 11;
        dense.shared_mut()[5] = 55;
        let mut sparse: QsmMachine<Word> = QsmMachine::new(params(8), 16, |_| 0);
        sparse.set_delivery_hook(Arc::new(CrashP1));
        sparse.shared_mut()[1] = 11;
        sparse.shared_mut()[5] = 55;
        for ph in 0..3 {
            dense.phase(|pid, s, res, ctx| program(pid, s, res, ctx, ph));
            sparse.phase_active(&actors, |pid, s, res, ctx| program(pid, s, res, ctx, ph));
        }
        assert_eq!(dense.states(), sparse.states());
        assert_eq!(dense.profiles(), sparse.profiles());
        assert_eq!(dense.fault_stats(), sparse.fault_stats());
    }

    #[test]
    fn work_charges_take_max() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase(|pid, _s, _res, ctx| ctx.charge_work(pid as u64));
        assert_eq!(m.profiles()[0].max_work, 3);
    }

    #[test]
    fn active_phase_matches_dense_phase() {
        use pbw_trace::RecordingSink;
        // The same 3-phase program (two writers, then a cross-read, then a
        // consume) run dense and sparse must agree on everything observable.
        let writers = [1usize, 5];
        let program = |pid: Pid, s: &mut Word, res: &[ReadResult], ctx: &mut QsmCtx, ph: usize| {
            if !writers.contains(&pid) {
                return;
            }
            match ph {
                0 => ctx.write(pid, 10 * pid as Word),
                1 => ctx.read(writers[usize::from(pid == writers[0])]),
                _ => *s = res[0].value,
            }
        };
        let dense_sink = Arc::new(RecordingSink::new());
        let mut dense: QsmMachine<Word> = QsmMachine::new(params(8), 16, |_| 0);
        dense.set_sink(dense_sink.clone());
        let sparse_sink = Arc::new(RecordingSink::new());
        let mut sparse: QsmMachine<Word> = QsmMachine::new(params(8), 16, |_| 0);
        sparse.set_sink(sparse_sink.clone());
        for ph in 0..3 {
            dense.phase(|pid, s, res, ctx| program(pid, s, res, ctx, ph));
            sparse.phase_active(&writers, |pid, s, res, ctx| program(pid, s, res, ctx, ph));
        }
        assert_eq!(dense.states(), sparse.states());
        assert_eq!(dense.shared(), sparse.shared());
        assert_eq!(dense.profiles(), sparse.profiles());
        assert_eq!(dense_sink.take(), sparse_sink.take());
    }

    #[test]
    fn active_phase_keeps_result_holders_in_the_frontier() {
        // pid 2 reads in phase 0; the next phase declares *nobody* active,
        // yet pid 2 must still run (it holds an undelivered result).
        let mut m: QsmMachine<Word> = QsmMachine::new(params(8), 8, |_| -1);
        m.shared_mut()[4] = 33;
        m.phase_active(&[2], |pid, _s, _res, ctx| {
            if pid == 2 {
                ctx.read(4);
            }
        });
        m.phase_active(&[], |_pid, s, res, _ctx| {
            if let Some(r) = res.first() {
                *s = r.value;
            }
        });
        let mut want = vec![-1; 8];
        want[2] = 33;
        assert_eq!(m.states(), want.as_slice());
    }

    #[test]
    fn active_phase_reports_sparse_conflicts_like_dense() {
        let body = |pid: Pid, _s: &mut (), _res: &[ReadResult], ctx: &mut QsmCtx| match pid {
            1 => {
                ctx.read(6);
                ctx.write(3, 1);
            }
            5 => {
                ctx.write(6, 9);
                ctx.read(3);
            }
            _ => {}
        };
        let mut dense: QsmMachine<()> = QsmMachine::new(params(8), 8, |_| ());
        let mut sparse: QsmMachine<()> = QsmMachine::new(params(8), 8, |_| ());
        let want = dense.try_phase(body).unwrap_err();
        let got = sparse.try_phase_active(&[1, 5], body).unwrap_err();
        // Both paths must report the lowest conflicting address.
        assert_eq!(want, SimError::ReadWriteConflict { addr: 3 });
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "active set names processor")]
    fn active_phase_rejects_out_of_range_pid() {
        let mut m: QsmMachine<()> = QsmMachine::new(params(4), 8, |_| ());
        m.phase_active(&[4], |_pid, _s, _res, _ctx| {});
    }

    #[test]
    fn rejected_active_set_leaves_the_machine_unchanged() {
        let mut m: QsmMachine<Word> = QsmMachine::new(params(4), 8, |_| 0);
        m.shared_mut()[2] = 42;
        m.phase(|_pid, _s, _res, ctx| ctx.read(2));
        let err = m
            .try_phase_active(&[0, 7], |_pid, s, _res, ctx| {
                *s = 99;
                ctx.write(3, 1);
            })
            .unwrap_err();
        assert_eq!(err, SimError::BadPid { pid: 7, p: 4 });
        assert_eq!(m.phase_index(), 1);
        assert_eq!(m.states(), &[0, 0, 0, 0]);
        assert_eq!(m.shared()[3], 0);
        // Still runnable, with the undelivered read results intact.
        m.phase(|_pid, s, res, _ctx| *s = res[0].value);
        assert_eq!(m.states(), &[42, 42, 42, 42]);
    }
}
