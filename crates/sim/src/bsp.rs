//! The message-passing bulk-synchronous machine.
//!
//! A [`BspMachine`] holds `p` processor states. Each call to
//! [`BspMachine::superstep`] runs a closure once per processor (in parallel
//! with rayon), giving it the processor's inbox (messages sent to it in the
//! previous superstep) and an [`Outbox`] for posting new messages.
//!
//! ## Injection slots
//!
//! The BSP(m) cost metric prices each *step* of a superstep by the number of
//! messages injected machine-wide in that step (`m_t`). A processor may
//! initiate at most one send per step. Programs targeting globally-limited
//! models therefore control *when* within the superstep each message is
//! injected, via [`Outbox::send_at`]. Messages posted with plain
//! [`Outbox::send`] are auto-assigned the earliest free slots of their
//! processor (the natural pipelined schedule). The engine validates the
//! one-injection-per-processor-per-step rule and builds the machine-wide
//! `m_t` histogram for the cost models.

use std::sync::Arc;

use crate::arena::MsgArena;
use crate::barrier::{resolve_slots_into, FaultMasks, LateQueue};
use crate::hook::{BatchDests, DeliveryHook, Fate, FaultStats};
use crate::{Pid, SimError};
use pbw_models::{FrontierMask, MachineParams, ProfileBuilder, SuperstepProfile};
use pbw_trace::{FaultCounters, RecoveryMark, TraceEvent, TraceSink, TraceSource};
use rayon::prelude::*;

/// A message posted during a superstep: destination, payload, and the
/// injection slot it occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Destination processor.
    pub dest: Pid,
    /// Payload.
    pub payload: M,
    /// Injection step within the superstep (`None` = auto-assign).
    pub slot: Option<u64>,
}

/// Per-processor output buffer for one superstep.
///
/// Destinations are mirrored in a flat structure-of-arrays lane (`dests`)
/// maintained invariantly by the two send methods — the batch kernels (fate
/// computation, arena counting) sweep that lane without touching payloads.
#[derive(Debug)]
pub struct Outbox<M> {
    envelopes: Vec<Envelope<M>>,
    dests: Vec<Pid>,
    work: u64,
    /// Number of `send_at` (explicit-slot) posts since the last reset.
    /// Zero means every slot is implicit — the slot resolution validates
    /// the whole outbox from the `dests` lane without touching envelopes.
    explicit: usize,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self {
            envelopes: Vec::new(),
            dests: Vec::new(),
            work: 0,
            explicit: 0,
        }
    }
}

impl<M> Outbox<M> {
    /// Post a message with automatic (pipelined) slot assignment: the k-th
    /// auto message of a processor is injected at the k-th step of the
    /// superstep not claimed by an explicit send.
    pub fn send(&mut self, dest: Pid, payload: M) {
        self.envelopes.push(Envelope {
            dest,
            payload,
            slot: None,
        });
        self.dests.push(dest);
    }

    /// Post a message pinned to injection step `slot` (0-based within the
    /// superstep). Two pinned sends from the same processor must use
    /// distinct slots.
    pub fn send_at(&mut self, dest: Pid, payload: M, slot: u64) {
        self.envelopes.push(Envelope {
            dest,
            payload,
            slot: Some(slot),
        });
        self.dests.push(dest);
        self.explicit += 1;
    }

    /// Charge `w` units of local computation to this processor for this
    /// superstep.
    pub fn charge_work(&mut self, w: u64) {
        self.work += w;
    }

    /// Number of messages posted so far.
    pub fn len(&self) -> usize {
        self.envelopes.len()
    }

    /// The destination lane: `dests()[i]` is the destination of the i-th
    /// posted message, in send order.
    pub fn dests(&self) -> &[Pid] {
        &self.dests
    }

    /// Empty the outbox for the next superstep, keeping its capacity.
    fn reset(&mut self) {
        self.envelopes.clear();
        self.dests.clear();
        self.work = 0;
        self.explicit = 0;
    }

    /// Whether any message has been posted.
    pub fn is_empty(&self) -> bool {
        self.envelopes.is_empty()
    }
}

/// Report for one executed superstep.
#[derive(Debug, Clone)]
pub struct SuperstepReport {
    /// The exact cost profile (price it with any `CostModel`).
    pub profile: SuperstepProfile,
    /// Number of messages delivered.
    pub delivered: u64,
}

/// A simulated `p`-processor message-passing machine.
///
/// Type parameters: `S` is the per-processor local state, `M` the message
/// payload type.
///
/// ```
/// use pbw_models::{MachineParams, BspM, PenaltyFn, CostModel};
/// use pbw_sim::BspMachine;
///
/// // A 4-processor ring rotation: every processor sends its id rightward.
/// let mp = MachineParams::from_gap(4, 2, 2);
/// let mut machine: BspMachine<u64, u64> = BspMachine::new(mp, |_| 0);
/// machine.superstep(|pid, _state, _inbox, out| {
///     out.send((pid + 1) % 4, pid as u64);
/// });
/// machine.superstep(|_pid, state, inbox, _out| {
///     *state = inbox[0];
/// });
/// assert_eq!(machine.states(), &[3, 0, 1, 2]);
///
/// // The same run priced under the globally-limited metric:
/// let model = BspM { m: mp.m, l: mp.l, penalty: PenaltyFn::Exponential };
/// assert!(machine.cost(&model) >= 2.0); // two supersteps, cost ≥ L each
/// ```
pub struct BspMachine<S, M> {
    params: MachineParams,
    states: Vec<S>,
    /// Messages awaiting the next superstep, segmented per destination.
    inboxes: MsgArena<M>,
    /// The previous boundary's arena, recycled: each superstep swaps it with
    /// `inboxes`, reads last boundary's deliveries from it, and refills the
    /// other — so at steady state delivery reuses the same two backing
    /// buffers forever.
    spare: MsgArena<M>,
    /// Per-processor outboxes, reset (capacity kept) every superstep.
    outboxes: Vec<Outbox<M>>,
    /// Whether every outbox is known empty-and-zeroed. True after a
    /// successful unhooked superstep: every outbox it dirtied was either a
    /// sender (drained, cleared, and zeroed by the delivery drain) or a
    /// non-sender frontier member (its closure posted nothing, so the
    /// reset-time state survived). While true, the closure pass skips the
    /// per-pid `Outbox::reset` — on a wide frontier that skip is a
    /// frontier's worth of cache lines never dirtied. Cleared at superstep
    /// entry and re-established only on clean unhooked exit, so errors,
    /// panics, and hooked supersteps all fall back to resetting.
    outboxes_clean: bool,
    /// Per-processor resolved injection slots, refilled every superstep.
    resolved: Vec<Vec<u64>>,
    /// Per-processor precomputed fates (hooked machines only).
    fates: Vec<Vec<Fate>>,
    /// Stalled and crashed processors this superstep (read only behind
    /// `hooked`).
    faults: FaultMasks,
    /// Delivery-pass scratch: `seq_lens[k]` counts the senders that posted
    /// exactly `k + 1` all-implicit-slot messages this superstep, feeding
    /// one aggregated histogram update instead of a per-sender scatter.
    /// Zeroed (never shrunk) after each flush, so it allocates only when a
    /// sender exceeds every previous length.
    seq_lens: Vec<u64>,
    /// The processors that posted a message or charged work this
    /// superstep, ascending — every stage after the closure pass walks
    /// only them (a wide receive-only frontier contributes nothing to
    /// delivery).
    senders: Vec<Pid>,
    /// The sparse path's frontier: the declared active set OR-ed
    /// word-at-a-time with the arena's touched mask — insertion *is*
    /// dedup, iteration *is* the sort.
    frontier_mask: FrontierMask,
    /// Dense-path sender discovery: the parallel closure pass writes one
    /// byte per pid ("posted a message or charged work"), folded into
    /// `senders` by a word-building sweep.
    sender_flags: Vec<u8>,
    /// Tracing scratch for per-processor send counts.
    per_proc_sent: Vec<u64>,
    /// Profile accumulator, snapshot-and-reset every superstep.
    builder: ProfileBuilder,
    profiles: Vec<SuperstepProfile>,
    superstep: usize,
    sink: Arc<dyn TraceSink>,
    trace_label: String,
    hook: Option<Arc<dyn DeliveryHook>>,
    /// Payloads the network will deliver at a later boundary: delayed
    /// messages and duplicate copies.
    late: LateQueue<M>,
    fault_stats: FaultStats,
    fault_round: u32,
    /// Checkpoint/rollback annotation stamped on (and cleared by) the next
    /// emitted trace event.
    recovery_mark: Option<RecoveryMark>,
}

impl<S: Send, M: Send> BspMachine<S, M> {
    /// Create a machine with `params.p` processors, initializing processor
    /// `i`'s state to `init(i)`.
    ///
    /// The machine captures the process-wide trace sink
    /// ([`pbw_trace::global_sink`]) at construction; use
    /// [`BspMachine::set_sink`] to attach a specific sink instead.
    pub fn new(params: MachineParams, init: impl FnMut(Pid) -> S) -> Self {
        let p = params.p;
        let states: Vec<S> = (0..p).map(init).collect();
        Self {
            params,
            states,
            inboxes: MsgArena::new(p),
            spare: MsgArena::new(p),
            outboxes: std::iter::repeat_with(Outbox::default).take(p).collect(),
            // Fresh outboxes are empty and zeroed by construction.
            outboxes_clean: true,
            resolved: vec![Vec::new(); p],
            fates: Vec::new(),
            faults: FaultMasks::new(p),
            seq_lens: Vec::new(),
            senders: Vec::new(),
            frontier_mask: FrontierMask::new(p),
            sender_flags: vec![0; p],
            per_proc_sent: Vec::new(),
            builder: ProfileBuilder::new(),
            profiles: Vec::new(),
            superstep: 0,
            sink: pbw_trace::global_sink(),
            trace_label: String::new(),
            hook: None,
            late: LateQueue::default(),
            fault_stats: FaultStats::default(),
            fault_round: 0,
            recovery_mark: None,
        }
    }

    /// Attach a trace sink, replacing the one captured at construction.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) -> &mut Self {
        self.sink = sink;
        self
    }

    /// Attach a fault-injection hook consulted at every delivery boundary
    /// (see [`crate::hook`]). Without one the machine is a reliable network.
    pub fn set_delivery_hook(&mut self, hook: Arc<dyn DeliveryHook>) -> &mut Self {
        self.hook = Some(hook);
        self
    }

    /// Remove any fault-injection hook (in-flight delayed payloads still
    /// arrive on schedule).
    pub fn clear_delivery_hook(&mut self) -> &mut Self {
        self.hook = None;
        self
    }

    /// The running fault ledger (all-zero counters besides
    /// `injected`/`delivered` when no hook is attached).
    pub fn fault_stats(&self) -> FaultStats {
        #[cfg(feature = "check-selftest")]
        if self.fault_stats.delivered > 0 && std::env::var_os("PBW_CHECK_SELFTEST").is_some() {
            // Deliberate conservation violation for `pbw-check --self-test`:
            // under-report one delivery so the ledger no longer balances. A
            // checker that does not flag this is itself broken.
            let mut broken = self.fault_stats;
            broken.delivered -= 1;
            return broken;
        }
        self.fault_stats
    }

    /// Payloads currently held inside the network: delayed messages and
    /// duplicate copies that have not yet reached an inbox.
    pub fn faults_in_flight(&self) -> u64 {
        self.fault_stats.in_flight
    }

    /// Retransmission round stamped on subsequent trace events' fault
    /// counters (0 = original transmission; set by recovery protocols).
    pub fn set_fault_round(&mut self, round: u32) -> &mut Self {
        self.fault_round = round;
        self
    }

    /// Stamp a checkpoint/rollback annotation on the *next* emitted trace
    /// event (cleared once consumed, whether or not a sink is enabled).
    /// Set by recovery drivers, never by the engine itself.
    pub fn set_recovery_mark(&mut self, mark: RecoveryMark) -> &mut Self {
        self.recovery_mark = Some(mark);
        self
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

    /// Index of the next superstep to execute (0-based).
    pub fn superstep_index(&self) -> usize {
        self.superstep
    }

    /// Immutable view of a processor's state.
    pub fn state(&self, pid: Pid) -> &S {
        &self.states[pid]
    }

    /// Immutable view of all processor states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable view of all processor states (for test setup and workload
    /// injection between supersteps).
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// The inbox a processor would see at the start of the next superstep.
    pub fn pending_inbox(&self, pid: Pid) -> &[M] {
        self.inboxes.inbox(pid)
    }

    /// Profiles of all executed supersteps.
    pub fn profiles(&self) -> &[SuperstepProfile] {
        &self.profiles
    }

    /// A canonical fingerprint of everything that determines the machine's
    /// *future* behavior: the superstep index, all processor states, every
    /// retained inbox, the in-network payload queue (delayed messages and
    /// duplicate copies, level by level in delivery order), and the fault
    /// ledger. Cost history (profiles) is deliberately excluded — it never
    /// feeds back into execution.
    ///
    /// Two machines with equal fingerprints behave identically under equal
    /// program + hook extensions, which is what makes this the sound
    /// duplicate-pruning key of the `pbw-check` bounded explorer. The value
    /// is deterministic within a build (SipHash with fixed keys via
    /// [`DefaultHasher`](std::collections::hash_map::DefaultHasher)) but is
    /// not a stable serialization format across toolchains.
    pub fn canonical_hash(&self) -> u64
    where
        S: std::hash::Hash,
        M: std::hash::Hash,
    {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.superstep.hash(&mut h);
        self.states.hash(&mut h);
        for pid in 0..self.params.p {
            self.inboxes.inbox(pid).hash(&mut h);
        }
        self.late.levels().len().hash(&mut h);
        for level in self.late.levels() {
            level.hash(&mut h);
        }
        self.fault_stats.hash(&mut h);
        h.finish()
    }

    /// Total run cost under any cost model: the sum over supersteps.
    pub fn cost(&self, model: &dyn pbw_models::CostModel) -> f64 {
        model.run_cost(&self.profiles)
    }

    /// Execute one superstep, panicking on model-rule violations.
    ///
    /// The closure is called once per processor with
    /// `(pid, &mut state, inbox, &mut outbox)`; the inbox holds the messages
    /// sent to `pid` during the previous superstep, in (source pid, send
    /// order) order.
    pub fn superstep<F>(&mut self, f: F) -> SuperstepReport
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        self.try_superstep(f)
            .unwrap_or_else(|e| panic!("superstep failed: {e}"))
    }

    /// Execute one superstep, returning model-rule violations as errors.
    pub fn try_superstep<F>(&mut self, f: F) -> Result<SuperstepReport, SimError>
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        self.superstep_core(None, f)
    }

    /// Execute one superstep over a declared active set, panicking on
    /// model-rule violations. See [`BspMachine::try_superstep_active`].
    pub fn superstep_active<F>(&mut self, active: &[Pid], f: F) -> SuperstepReport
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        self.try_superstep_active(active, f)
            .unwrap_or_else(|e| panic!("superstep failed: {e}"))
    }

    /// Execute one superstep on the **sparse path**: the closure runs only
    /// for the *frontier* — the union of `active` (the caller's declared
    /// senders) and every processor holding a non-empty inbox from the last
    /// boundary (which covers ordinary deliveries, retained stalled inboxes,
    /// and delayed payloads that have landed). Per-superstep cost is
    /// O(frontier + messages), not O(p). Exceptions, documented: a machine
    /// with a delivery hook reads the stall/crash masks word-at-a-time
    /// (O(fault-words), filled once per superstep via
    /// [`DeliveryHook::fill_fault_masks`]), and a superstep observed by an
    /// enabled trace sink materializes the dense per-processor traffic
    /// vectors its events carry (zeroed rows, filled O(touched)).
    ///
    /// The result is **byte-identical** to [`BspMachine::try_superstep`] —
    /// same states, profiles, trace events and fault ledger — provided the
    /// closure is a no-op for every skipped processor: for any pid outside
    /// `active` that holds an empty inbox, `f(pid, ..)` must not mutate
    /// state, post messages, or charge work. The frontier is iterated in
    /// sorted pid order, so the canonical sequential delivery order (source
    /// pid ascending, then send order, then due late arrivals) is replayed
    /// exactly.
    ///
    /// # Errors
    /// Besides the model-rule violations [`BspMachine::try_superstep`]
    /// reports, returns [`SimError::BadPid`] if `active` names a pid `>= p`.
    /// That check runs before anything else, so a rejected call leaves the
    /// machine exactly as it was.
    pub fn try_superstep_active<F>(
        &mut self,
        active: &[Pid],
        f: F,
    ) -> Result<SuperstepReport, SimError>
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        self.superstep_core(Some(active), f)
    }

    /// The one superstep implementation behind both entry points. Only the
    /// closure pass differs: `active: None` runs the closure for all `p`
    /// processors in parallel and folds their sender flags into the sender
    /// list; `active: Some(set)` runs it sequentially over the sorted
    /// frontier. Everything after it — slot resolution, fates, counting,
    /// delivery, profile and trace rows — walks the ascending sender list
    /// once, on the epoch-stamped tallies, for hooked and unhooked machines
    /// alike. A processor that posted nothing and charged no work would
    /// contribute only `record_work(0)`/`record_traffic(0, 0)` no-ops, which
    /// is what makes the two entry points byte-identical by construction.
    fn superstep_core<F>(
        &mut self,
        active: Option<&[Pid]>,
        f: F,
    ) -> Result<SuperstepReport, SimError>
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        let p = self.params.p;
        let step = self.superstep as u64;
        if let Some(&pid) = active.and_then(|set| set.iter().find(|&&pid| pid >= p)) {
            return Err(SimError::BadPid { pid, p });
        }
        // Rotate the arenas: `spare` becomes the read side (last boundary's
        // deliveries), and the arena the previous superstep read from is
        // cleared for refill. If this superstep is rejected below, `inboxes`
        // stays cleared — a failed superstep loses its in-flight messages
        // but nothing else, and the machine stays runnable.
        std::mem::swap(&mut self.inboxes, &mut self.spare);
        self.inboxes.clear();

        // The stall/crash step's masks (see `FaultMasks`), filled once per
        // superstep and only ever read behind `hooked`.
        let hook = self.hook.clone();
        let hooked = hook.is_some();
        let tracing = self.sink.enabled();
        // *Taken*, not read: if this superstep errors or panics the flag
        // stays false and the next superstep resets as usual; only the
        // clean unhooked exit at the bottom re-establishes it.
        let outboxes_were_clean = std::mem::take(&mut self.outboxes_clean);
        if let Some(h) = &hook {
            self.faults.fill(h.as_ref(), step);
        }

        // Individual slot values are only ever read by the hooked fate
        // machinery and the trace multiplicity scan; plain unhooked,
        // untraced supersteps keep the all-implicit marker instead.
        let materialize_slots = hooked || tracing;
        if tracing {
            // Trace events carry dense per-processor traffic vectors (O(p),
            // tracing only).
            self.per_proc_sent.clear();
            self.per_proc_sent.resize(p, 0);
        }

        // Closure pass, collecting the ascending sender list. Stalled and
        // crashed pids skip their closure with a reset outbox, so they are
        // never senders. Unhooked, each sender's tally (`tally_sender`) runs
        // straight after the pass — or, sequentially, right after its own
        // closure while the outbox is hot; the first error wins and is
        // reported only after every closure has run.
        let mut err: Option<SimError> = None;
        self.senders.clear();
        match active {
            None => {
                // All p processors in parallel, each flagging itself as a
                // sender (one byte, written unconditionally next to the
                // outbox reset it shares a cache line with).
                let f = &f;
                let faults = &self.faults;
                let spare = &self.spare;
                let _: Vec<()> = self
                    .states
                    .par_iter_mut()
                    .zip(self.outboxes.par_iter_mut())
                    .zip(self.sender_flags.par_iter_mut())
                    .enumerate()
                    .map(|(pid, ((state, out), flag))| {
                        if !outboxes_were_clean {
                            out.reset();
                        }
                        if !(hooked && faults.skips(pid)) {
                            f(pid, state, spare.inbox(pid), out);
                        }
                        *flag = (!out.envelopes.is_empty() || out.work != 0) as u8;
                    })
                    .collect();
                for (leaf, chunk) in self.sender_flags.chunks(64).enumerate() {
                    let mut word = 0u64;
                    for (bit, &flag) in chunk.iter().enumerate() {
                        word |= (flag as u64) << bit;
                    }
                    while word != 0 {
                        self.senders
                            .push(leaf * 64 + word.trailing_zeros() as usize);
                        word &= word - 1;
                    }
                }
                if !hooked {
                    for &pid in &self.senders {
                        if let Err(e) = tally_sender(
                            pid,
                            p,
                            &self.outboxes[pid],
                            &mut self.resolved[pid],
                            materialize_slots,
                            &mut self.seq_lens,
                            &mut self.builder,
                            &mut self.inboxes,
                        ) {
                            err = Some(e);
                            break;
                        }
                    }
                }
            }
            Some(declared) => {
                // The frontier: the declared set plus every pid whose inbox
                // from the last boundary is non-empty (ordinary deliveries,
                // retained stalled inboxes and landed delayed payloads all
                // live there, so `spare.touched()` covers them without
                // scanning p inboxes). The mask OR is the dedup and its
                // ascending word walk the sort — the order that replays the
                // canonical delivery order exactly.
                let frontier = if declared.is_empty() {
                    self.spare.touched()
                } else {
                    self.frontier_mask.clear();
                    for &pid in declared {
                        self.frontier_mask.insert(pid);
                    }
                    self.frontier_mask.union_with(self.spare.touched());
                    &self.frontier_mask
                };
                for (leaf, word) in frontier.words() {
                    let mut bits = word;
                    while bits != 0 {
                        let pid = leaf * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let out = &mut self.outboxes[pid];
                        if !outboxes_were_clean {
                            out.reset();
                        }
                        if !(hooked && self.faults.skips(pid)) {
                            f(pid, &mut self.states[pid], self.spare.inbox(pid), out);
                        }
                        if out.envelopes.is_empty() && out.work == 0 {
                            continue;
                        }
                        self.senders.push(pid);
                        if !hooked && err.is_none() {
                            err = tally_sender(
                                pid,
                                p,
                                out,
                                &mut self.resolved[pid],
                                materialize_slots,
                                &mut self.seq_lens,
                                &mut self.builder,
                                &mut self.inboxes,
                            )
                            .err();
                        }
                    }
                }
            }
        }

        if let Some(h) = &hook {
            // Hooked supersteps resolve every sender up front (the fate
            // batch consumes the slot sequences) and record nothing before
            // this point, so an error here leaves the builder untouched.
            if self.fates.len() != p {
                self.fates.resize_with(p, Vec::new);
            }
            for &pid in &self.senders {
                let out = &self.outboxes[pid];
                let slots = &mut self.resolved[pid];
                resolve_outbox(pid, p, out, slots, true)?;
                // Fates are pure in `(superstep, src, dest, msg_idx, slot)`;
                // the delivery pass below only *applies* them, in the fixed
                // order the ledger, late-arrival queue and traces are defined by.
                let fates = &mut self.fates[pid];
                fates.clear();
                h.fate_batch(step, pid, BatchDests::Lane(out.dests()), slots, fates);
            }
        } else if let Some(e) = err {
            // The tallies already recorded are discarded wholesale: the
            // builder and the length buckets end empty, and one epoch bump
            // drops the partial arena counts.
            let _ = self.builder.snapshot_reset();
            self.seq_lens.fill(0);
            self.inboxes.clear();
            return Err(e);
        }

        // From here on everything is sequential and deterministic. Borrow
        // the machine's parts individually so the delivery loop can fill the
        // arena while queueing late payloads.
        let Self {
            ref params,
            ref mut inboxes,
            ref spare,
            ref mut outboxes,
            ref mut outboxes_clean,
            ref resolved,
            ref fates,
            ref faults,
            ref mut seq_lens,
            ref senders,
            ref mut per_proc_sent,
            ref mut builder,
            ref mut profiles,
            superstep: ref mut superstep_idx,
            ref sink,
            ref trace_label,
            ref mut late,
            ref mut fault_stats,
            ref fault_round,
            ref mut recovery_mark,
            ..
        } = *self;

        let mut counters = FaultCounters {
            retransmit_round: *fault_round,
            ..Default::default()
        };
        let masks = hooked.then_some(faults);

        // Counting pass. Unhooked senders were counted into the arena by
        // their tally; hooked ones count here, after the inboxes stalled
        // processors retain, only the fates that land now at a live
        // destination. Payloads the network is due to release at this
        // boundary (queued by earlier Delay/Duplicate fates) come last:
        // popped before this superstep's sends are queued, so a `Delay(k)`
        // waits exactly `k` extra steps.
        if let Some(m) = masks {
            m.charge_and_count_retained(spare, inboxes, fault_stats, &mut counters);
            for &pid in senders.iter() {
                crate::kernels::count_fated(
                    outboxes[pid].dests(),
                    &fates[pid],
                    &m.crashed,
                    inboxes,
                );
            }
        }
        let due = late.pop_due();
        LateQueue::count_due(&due, masks, inboxes);
        let max_segment = inboxes.begin_counted();

        // Placement pass, in the canonical delivery order: retained inboxes,
        // then the senders' payloads (source pid ascending, then send
        // order), then the due late arrivals.
        let mut delivered = if let Some(m) = masks {
            m.place_retained(spare, inboxes);
            delivery_pass(
                senders,
                outboxes,
                resolved,
                fates,
                &m.crashed,
                tracing,
                per_proc_sent,
                inboxes,
                builder,
                late,
                fault_stats,
                &mut counters,
            )
        } else {
            let mut delivered = 0u64;
            for &pid in senders.iter() {
                let out = &mut outboxes[pid];
                let n = out.envelopes.len() as u64;
                if tracing {
                    per_proc_sent[pid] = n;
                }
                for env in out.envelopes.drain(..) {
                    inboxes.place(env.dest, env.payload);
                }
                // Leave the outbox fully zeroed, not just drained, so the
                // next superstep's closure pass can skip its reset
                // (`outboxes_clean`).
                out.dests.clear();
                out.work = 0;
                out.explicit = 0;
                fault_stats.injected += n;
                fault_stats.delivered += n;
                delivered += n;
            }
            builder.record_injections_by_len(seq_lens);
            seq_lens.fill(0);
            delivered
        };
        delivered += late.land_due(due, masks, inboxes, fault_stats, &mut counters);
        inboxes.finish();

        // A destination's receive count is its segment minus whatever it
        // retained from the last boundary as a stalled, live processor.
        // Unhooked, nothing is retained, so the layout's largest segment is
        // the receive maximum.
        let received = |d: Pid| (inboxes.len(d) - masks.map_or(0, |m| m.retained(spare, d))) as u64;
        let max_recv = match masks {
            None => max_segment,
            Some(_) => inboxes.touched().iter().map(received).max().unwrap_or(0),
        };
        builder.record_traffic(0, max_recv);

        let profile = builder.snapshot_reset();
        // Taken unconditionally so mark consumption is sink-independent.
        let mark = recovery_mark.take();
        if tracing {
            // Trace rows are dense by format (length p), but the fill is
            // O(touched): a zeroed row plus one write per receiver.
            let mut per_proc_recv = vec![0u64; p];
            for d in inboxes.touched().iter() {
                per_proc_recv[d] = received(d);
            }
            // Only senders hold slots resolved this superstep; every other
            // buffer may be stale and would contribute nothing anyway.
            let max_mult = crate::max_slot_multiplicity(resolved, senders.iter().copied());
            let mut ev = TraceEvent::for_superstep(
                TraceSource::Bsp,
                trace_label.clone(),
                step,
                *params,
                profile.clone(),
                std::mem::take(per_proc_sent),
                per_proc_recv,
                max_mult,
                delivered,
            );
            if hooked {
                ev = ev.with_faults(counters);
            }
            if let Some(m) = mark {
                ev = ev.with_recovery(m);
            }
            sink.record(ev);
        }
        profiles.push(profile.clone());
        // Unhooked supersteps leave every dirtied outbox drained and zeroed
        // (see the drain above); combined with an all-clean entry — or the
        // dense pass's reset of all p — the whole population is clean
        // again, and the next superstep's closure pass skips its resets.
        // Hooked supersteps make no such claim.
        *outboxes_clean = !hooked && (outboxes_were_clean || active.is_none());
        *superstep_idx += 1;
        Ok(SuperstepReport { profile, delivered })
    }

    /// Run supersteps until `f` posts no messages anywhere (quiescence) or
    /// `max_supersteps` is reached; returns the number of supersteps run.
    pub fn run_to_quiescence<F>(&mut self, f: F, max_supersteps: usize) -> usize
    where
        F: Fn(Pid, &mut S, &[M], &mut Outbox<M>) + Sync,
        M: Sync + Clone,
        S: Sync,
    {
        for i in 0..max_supersteps {
            let report = self.superstep(&f);
            if report.delivered == 0 {
                return i + 1;
            }
        }
        max_supersteps
    }
}

/// A superstep-consistent snapshot of a [`BspMachine`]: exactly the state
/// [`BspMachine::canonical_hash`] covers — superstep index, processor
/// states, every retained inbox, the pending network queue, and the fault
/// ledger. Taken at a barrier (between supersteps) there is nothing else in
/// flight, which is why a barrier-aligned snapshot is globally consistent
/// without any coordination protocol.
#[derive(Debug, Clone)]
pub struct MachineCheckpoint<S, M> {
    superstep: usize,
    states: Vec<S>,
    inboxes: Vec<Vec<M>>,
    pending: Vec<Vec<(Pid, M)>>,
    fault_stats: FaultStats,
}

impl<S, M> MachineCheckpoint<S, M> {
    /// Superstep index the snapshot was taken at (the next one to execute).
    pub fn superstep(&self) -> u64 {
        self.superstep as u64
    }

    /// Number of processors captured.
    pub fn p(&self) -> usize {
        self.states.len()
    }

    /// Payloads captured in `pid`'s inbox.
    pub fn inbox_payloads(&self, pid: Pid) -> u64 {
        self.inboxes[pid].len() as u64
    }

    /// State volume `pid` contributes to a checkpoint write, in payload
    /// units: one word of processor state plus the retained inbox. This is
    /// what the recovery driver schedules as an h-relation.
    pub fn state_words(&self, pid: Pid) -> u64 {
        1 + self.inbox_payloads(pid)
    }

    /// Total payloads captured across inboxes and the pending network.
    pub fn total_payloads(&self) -> u64 {
        let inboxed: u64 = self.inboxes.iter().map(|b| b.len() as u64).sum();
        inboxed + self.pending_payloads()
    }

    /// Payloads captured inside the pending network queue.
    pub fn pending_payloads(&self) -> u64 {
        self.pending.iter().map(|l| l.len() as u64).sum()
    }

    /// The ledger as of the snapshot.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }
}

impl<S: Send + Clone, M: Send + Clone> BspMachine<S, M> {
    /// Snapshot the machine at the current superstep boundary. Call only
    /// between supersteps (any `&self` moment is one); the snapshot holds
    /// exactly the [`BspMachine::canonical_hash`]-covered state, so
    /// [`BspMachine::restore`] round-trips the hash bit-exactly.
    ///
    /// Cost history (profiles) is deliberately excluded, mirroring
    /// `canonical_hash`: rolled-back supersteps really executed and really
    /// cost wall-clock time, so their profiles stay on the books.
    pub fn checkpoint(&self) -> MachineCheckpoint<S, M> {
        MachineCheckpoint {
            superstep: self.superstep,
            states: self.states.clone(),
            inboxes: (0..self.params.p)
                .map(|pid| self.inboxes.inbox(pid).to_vec())
                .collect(),
            pending: self.late.levels().iter().cloned().collect(),
            fault_stats: self.fault_stats,
        }
    }

    /// Load snapshot state *exactly*, ledger included: afterwards
    /// `canonical_hash()` equals the hash at [`BspMachine::checkpoint`]
    /// time, bit for bit. This is the testing/replay primitive; recovery
    /// protocols use [`BspMachine::rollback`], which keeps the ledger
    /// monotone instead of rewinding it.
    ///
    /// # Panics
    /// Panics if the snapshot was taken on a machine with a different `p`.
    pub fn restore(&mut self, ckpt: &MachineCheckpoint<S, M>) {
        self.load_snapshot(ckpt);
        self.fault_stats = ckpt.fault_stats;
    }

    /// Roll back to `ckpt` the way a recovery protocol does: machine state
    /// (superstep index, processor states, inboxes, pending network)
    /// reverts to the snapshot, but the fault ledger stays monotone — the
    /// aborted timeline's work really happened and stays on the books:
    ///
    /// * every payload currently in flight is written off to `crashed`
    ///   (the rollback abandons it with the timeline);
    /// * the snapshot's inbox and pending payloads are re-materialized and
    ///   credited to `restored` (inbox payloads also re-enter `delivered`,
    ///   since they sit in inboxes again; pending ones re-enter
    ///   `in_flight`).
    ///
    /// The conservation law `injected + duplicated + restored ==
    /// delivered + dropped + crashed + in_flight` holds after rollback
    /// whenever it held before — both sides grow by exactly the snapshot's
    /// payload count.
    ///
    /// # Panics
    /// Panics if the snapshot was taken on a machine with a different `p`.
    pub fn rollback(&mut self, ckpt: &MachineCheckpoint<S, M>) {
        let discarded = self.fault_stats.in_flight;
        let inboxed: u64 = ckpt.inboxes.iter().map(|b| b.len() as u64).sum();
        let pending = ckpt.pending_payloads();
        self.load_snapshot(ckpt);
        self.fault_stats.crashed += discarded;
        self.fault_stats.restored += inboxed + pending;
        self.fault_stats.delivered += inboxed;
        self.fault_stats.in_flight = pending;
    }

    fn load_snapshot(&mut self, ckpt: &MachineCheckpoint<S, M>) {
        let p = self.params.p;
        assert_eq!(
            ckpt.states.len(),
            p,
            "snapshot captured {} processors, machine has {p}",
            ckpt.states.len()
        );
        self.superstep = ckpt.superstep;
        self.states.clone_from(&ckpt.states);
        // Rebuild the inbox arena through its normal count/begin/place/finish
        // protocol so touched-tracking (the sparse frontier source) matches
        // a machine that arrived here by executing.
        self.inboxes.clear();
        for (pid, inbox) in ckpt.inboxes.iter().enumerate() {
            self.inboxes.count(pid, inbox.len());
        }
        self.inboxes.begin_counted();
        for (pid, inbox) in ckpt.inboxes.iter().enumerate() {
            for msg in inbox {
                self.inboxes.place(pid, msg.clone());
            }
        }
        self.inboxes.finish();
        self.late.load(&ckpt.pending);
    }
}

/// The unhooked per-sender tally, run once per sender: record its work and
/// send traffic, resolve and validate its slots, bucket its injections, and
/// count its destinations straight into the arena's segment table — no
/// second tally structure between counting and layout. On error the caller
/// discards everything already recorded, so a failing sender needs no
/// partial undo.
///
/// A sender whose slots are all implicit leaves `slots` empty (unless
/// `materialize`) and is bucketed by length in `seq_lens`; one
/// `record_injections_by_len` call after the drain replays the whole
/// population's histogram contributions in bulk (sums — order
/// unobservable).
#[allow(clippy::too_many_arguments)]
fn tally_sender<M>(
    pid: Pid,
    p: usize,
    out: &Outbox<M>,
    slots: &mut Vec<u64>,
    materialize: bool,
    seq_lens: &mut Vec<u64>,
    builder: &mut ProfileBuilder,
    inboxes: &mut MsgArena<M>,
) -> Result<(), SimError> {
    if out.work != 0 {
        builder.record_work(out.work);
    }
    // A work-only sender still gets its slot buffer cleared: the trace
    // multiplicity scan walks every sender's.
    resolve_outbox(pid, p, out, slots, materialize)?;
    let n = out.envelopes.len();
    if n == 0 {
        return Ok(());
    }
    if slots.is_empty() {
        if seq_lens.len() < n {
            seq_lens.resize(n, 0);
        }
        seq_lens[n - 1] += 1;
    } else {
        debug_assert_eq!(slots.len(), n);
        builder.record_injections_batch(slots);
    }
    builder.record_traffic(n as u64, 0);
    inboxes.count_ones(out.dests());
    Ok(())
}

/// The hooked delivery pass: walk the senders' outboxes in ascending pid
/// order, record their work/send traffic, apply each envelope's
/// precomputed fate in the canonical delivery order (source pid ascending,
/// then send order), and place surviving payloads into the arena. Returns
/// the number of payloads delivered.
#[allow(clippy::too_many_arguments)]
fn delivery_pass<M: Clone>(
    senders: &[Pid],
    outboxes: &mut [Outbox<M>],
    resolved: &[Vec<u64>],
    fates: &[Vec<Fate>],
    crashed: &FrontierMask,
    tracing: bool,
    per_proc_sent: &mut [u64],
    inboxes: &mut MsgArena<M>,
    builder: &mut ProfileBuilder,
    late: &mut LateQueue<M>,
    fault_stats: &mut FaultStats,
    counters: &mut FaultCounters,
) -> u64 {
    let mut delivered = 0u64;
    for &pid in senders {
        let out = &mut outboxes[pid];
        let slots = &resolved[pid];
        if out.work != 0 {
            builder.record_work(out.work);
            out.work = 0;
        }
        if tracing {
            per_proc_sent[pid] = out.envelopes.len() as u64;
        }
        builder.record_traffic(out.envelopes.len() as u64, 0);
        for (msg_idx, (env, &slot)) in out.envelopes.drain(..).zip(slots.iter()).enumerate() {
            let fate = fates[pid][msg_idx];
            fault_stats.injected += 1;
            // Every fate consumed bandwidth and an injection slot (the
            // network accepted the send); a displacement moves the slot.
            builder.record_injection(match fate {
                Fate::Displace(d) => slot + d,
                _ => slot,
            });
            match fate {
                Fate::Drop => {
                    fault_stats.dropped += 1;
                    counters.dropped += 1;
                    continue;
                }
                Fate::Delay(k) => {
                    late.push(k, env.dest, env.payload, fault_stats);
                    fault_stats.delayed += 1;
                    counters.delayed += 1;
                    continue;
                }
                Fate::Duplicate => {
                    // The spurious copy arrives next superstep and meets
                    // *that* superstep's crash set when it lands.
                    late.push(1, env.dest, env.payload.clone(), fault_stats);
                    fault_stats.duplicated += 1;
                    counters.duplicated += 1;
                }
                Fate::Displace(_) => {
                    fault_stats.displaced += 1;
                    counters.displaced += 1;
                }
                Fate::Deliver => {}
            }
            // A payload bound for a crash-stopped destination is destroyed
            // at the custody transfer: nothing lands, and the `crashed`
            // ledger column is charged instead of `delivered`.
            if crashed.contains(env.dest) {
                fault_stats.crashed += 1;
                counters.crashed += 1;
            } else {
                inboxes.place(env.dest, env.payload);
                delivered += 1;
                fault_stats.delivered += 1;
            }
        }
        out.dests.clear();
        out.explicit = 0;
    }
    delivered
}

/// Validate a processor's destinations, then resolve its injection slots
/// (see [`resolve_slots_into`]). The bounds check is a vectorizable max
/// over the flat dests lane, never an envelope walk; on violation the lane
/// is rescanned for the first offender in send order.
fn resolve_outbox<M>(
    pid: Pid,
    p: usize,
    out: &Outbox<M>,
    slots: &mut Vec<u64>,
    materialize: bool,
) -> Result<(), SimError> {
    let max = out.dests.iter().copied().max().unwrap_or(0);
    if max >= p {
        let dest = out.dests.iter().copied().find(|&d| d >= p).unwrap_or(max);
        return Err(SimError::BadDestination { pid, dest });
    }
    let claims = out.envelopes.iter().map(|env| env.slot);
    resolve_slots_into(pid, claims, out.explicit != 0, slots, materialize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::DeliveryCtx;
    use pbw_models::{BspG, BspM, PenaltyFn};

    fn params(p: usize) -> MachineParams {
        MachineParams::from_gap(p, 4, 8)
    }

    #[test]
    fn messages_arrive_next_superstep() {
        let mut m: BspMachine<u64, u64> = BspMachine::new(params(4), |_| 0);
        m.superstep(|pid, _s, inbox, out| {
            assert!(inbox.is_empty());
            out.send((pid + 1) % 4, pid as u64 * 10);
        });
        m.superstep(|pid, s, inbox, _out| {
            assert_eq!(inbox.len(), 1);
            *s = inbox[0];
            assert_eq!(inbox[0], (((pid + 3) % 4) as u64) * 10);
        });
        assert_eq!(m.states(), &[30, 0, 10, 20]);
    }

    #[test]
    fn auto_slots_are_pipelined() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                for _ in 0..5 {
                    out.send(1, 0);
                }
            }
        });
        // Processor 0 injected 1 message at each of steps 0..5.
        assert_eq!(m.profiles()[0].injections, vec![1, 1, 1, 1, 1]);
        assert_eq!(m.profiles()[0].max_sent, 5);
        assert_eq!(m.profiles()[0].max_received, 5);
    }

    #[test]
    fn explicit_slots_build_histogram() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.superstep(|pid, _s, _in, out| {
            // All four processors inject at slot 7.
            out.send_at((pid + 1) % 4, 1, 7);
        });
        let prof = &m.profiles()[0];
        assert_eq!(prof.injections.len(), 8);
        assert_eq!(prof.injections[7], 4);
        assert_eq!(prof.total_messages, 4);
    }

    #[test]
    fn auto_slots_avoid_explicit_ones() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send_at(1, 9, 0); // claims slot 0
                out.send(1, 9); // must land on slot 1
                out.send_at(1, 9, 2); // claims slot 2
                out.send(1, 9); // must land on slot 3
            }
        });
        assert_eq!(m.profiles()[0].injections, vec![1, 1, 1, 1]);
    }

    #[test]
    fn duplicate_slot_rejected() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        let err = m
            .try_superstep(|pid, _s, _in, out| {
                if pid == 2 {
                    out.send_at(0, 1, 5);
                    out.send_at(1, 1, 5);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::DuplicateSlot { pid: 2, slot: 5 });
    }

    #[test]
    fn duplicate_slots_report_the_lowest_collision() {
        // Two colliding pairs, the higher slot colliding first in send
        // order: the error names the lowest duplicated slot.
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        let err = m
            .try_superstep(|pid, _s, _in, out| {
                if pid == 1 {
                    out.send_at(0, 1, 9);
                    out.send_at(2, 1, 4);
                    out.send_at(3, 1, 9);
                    out.send_at(0, 1, 4);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::DuplicateSlot { pid: 1, slot: 4 });
    }

    #[test]
    fn bad_destination_rejected() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        let err = m
            .try_superstep(|pid, _s, _in, out| {
                if pid == 0 {
                    out.send(99, 1);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::BadDestination { pid: 0, dest: 99 });
    }

    #[test]
    fn delivery_order_is_source_then_send_order() {
        let mut m: BspMachine<Vec<u64>, u64> = BspMachine::new(params(4), |_| Vec::new());
        m.superstep(|pid, _s, _in, out| {
            // Everyone sends two tagged messages to processor 0.
            out.send(0, (pid as u64) * 10);
            out.send(0, (pid as u64) * 10 + 1);
        });
        m.superstep(|pid, s, inbox, _out| {
            if pid == 0 {
                *s = inbox.to_vec();
            }
        });
        assert_eq!(m.state(0), &vec![0, 1, 10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn work_is_charged() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.superstep(|pid, _s, _in, out| {
            out.charge_work(pid as u64 * 100);
        });
        assert_eq!(m.profiles()[0].max_work, 300);
    }

    #[test]
    fn costs_price_the_same_run_differently() {
        // One hot sender: proc 0 sends 16 messages, spread over 16 slots.
        let mut m: BspMachine<(), u8> = BspMachine::new(params(16), |_| ());
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                for k in 0..16u64 {
                    out.send_at(((k % 15) + 1) as usize, 0, k);
                }
            }
        });
        let bsp_g = BspG { g: 4, l: 8 };
        let bsp_m = BspM {
            m: 4,
            l: 8,
            penalty: PenaltyFn::Exponential,
        };
        // BSP(g): h = 16, cost = 4·16 = 64. BSP(m): c_m = 16 (one msg per
        // slot), h = 16, L = 8 → 16.
        assert_eq!(m.cost(&bsp_g), 64.0);
        assert_eq!(m.cost(&bsp_m), 16.0);
    }

    #[test]
    fn non_receipt_is_observable() {
        // Proc 0 sends to 1 iff its "bit" is set; proc 1 branches on empty
        // inbox — the Section 4.2 primitive.
        for bit in [false, true] {
            let mut m: BspMachine<bool, ()> = BspMachine::new(params(4), |_| false);
            m.superstep(|pid, _s, _in, out| {
                if pid == 0 && bit {
                    out.send(1, ());
                }
            });
            m.superstep(|pid, s, inbox, _out| {
                if pid == 1 {
                    *s = !inbox.is_empty();
                }
            });
            assert_eq!(*m.state(1), bit);
        }
    }

    #[test]
    fn run_to_quiescence_stops() {
        // A token passes 0→1→2→3 then stops.
        let mut m: BspMachine<bool, ()> = BspMachine::new(params(4), |pid| pid == 0);
        let steps = m.run_to_quiescence(
            |pid, has, inbox, out| {
                if !inbox.is_empty() {
                    *has = true;
                }
                if *has && pid < 3 {
                    out.send(pid + 1, ());
                    *has = false;
                }
            },
            100,
        );
        assert!(steps <= 5, "steps={steps}");
        assert!(*m.state(3));
    }

    #[test]
    fn trace_events_mirror_reports() {
        use pbw_trace::RecordingSink;
        let sink = Arc::new(RecordingSink::new());
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_sink(sink.clone()).set_trace_label("ring");
        let report = m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 0));
        let events = sink.take();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.source, TraceSource::Bsp);
        assert_eq!(ev.label, "ring");
        assert_eq!(ev.superstep, 0);
        assert_eq!(ev.profile, report.profile);
        assert_eq!(ev.delivered, 4);
        assert_eq!(ev.per_proc_sent, vec![1, 1, 1, 1]);
        assert_eq!(ev.per_proc_recv, vec![1, 1, 1, 1]);
        assert_eq!(ev.max_proc_slot_injections, 1);
    }

    struct DropFrom(Pid);
    impl crate::hook::DeliveryHook for DropFrom {
        fn fate(&self, ctx: &DeliveryCtx) -> Fate {
            if ctx.src == self.0 {
                Fate::Drop
            } else {
                Fate::Deliver
            }
        }
    }

    #[test]
    fn dropped_messages_never_arrive_but_are_priced() {
        let mut m: BspMachine<u64, u64> = BspMachine::new(params(4), |_| 0);
        m.set_delivery_hook(Arc::new(DropFrom(0)));
        let report = m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 1));
        // Three of four arrive; all four consumed injection slots.
        assert_eq!(report.delivered, 3);
        assert_eq!(report.profile.total_messages, 4);
        assert_eq!(report.profile.max_sent, 1);
        assert!(m.pending_inbox(1).is_empty()); // 0→1 was the dropped edge
        let stats = m.fault_stats();
        assert_eq!(stats.dropped, 1);
        assert!(stats.conserved());
    }

    struct DelayAll(u32);
    impl crate::hook::DeliveryHook for DelayAll {
        fn fate(&self, _ctx: &DeliveryCtx) -> Fate {
            Fate::Delay(self.0)
        }
    }

    #[test]
    fn delayed_messages_arrive_k_supersteps_late() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_delivery_hook(Arc::new(DelayAll(2)));
        let r0 = m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 7);
            }
        });
        assert_eq!(r0.delivered, 0);
        assert_eq!(m.faults_in_flight(), 1);
        let idle = |_: Pid, _: &mut (), _: &[u8], _: &mut Outbox<u8>| {};
        let r1 = m.superstep(idle);
        assert_eq!(r1.delivered, 0);
        let r2 = m.superstep(idle);
        // Normal delivery would be visible in superstep 1; Delay(2) means
        // the payload lands at the boundary two supersteps later.
        assert_eq!(r2.delivered, 1);
        assert_eq!(r2.profile.max_received, 1);
        assert_eq!(m.pending_inbox(1), &[7]);
        assert_eq!(m.faults_in_flight(), 0);
        assert!(m.fault_stats().conserved());
    }

    struct DupAll;
    impl crate::hook::DeliveryHook for DupAll {
        fn fate(&self, _ctx: &DeliveryCtx) -> Fate {
            Fate::Duplicate
        }
    }

    #[test]
    fn duplicates_deliver_a_spurious_copy_one_superstep_later() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_delivery_hook(Arc::new(DupAll));
        let r0 = m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 9);
            }
        });
        assert_eq!(r0.delivered, 1);
        let r1 = m.superstep(|_, _, _, _| {});
        assert_eq!(r1.delivered, 1); // the copy
        assert_eq!(m.pending_inbox(1), &[9]);
        let stats = m.fault_stats();
        assert_eq!(
            (stats.injected, stats.duplicated, stats.delivered),
            (1, 1, 2)
        );
        assert!(stats.conserved());
    }

    struct DisplaceAll(u64);
    impl crate::hook::DeliveryHook for DisplaceAll {
        fn fate(&self, _ctx: &DeliveryCtx) -> Fate {
            Fate::Displace(self.0)
        }
    }

    #[test]
    fn displacement_reshapes_the_injection_histogram() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_delivery_hook(Arc::new(DisplaceAll(3)));
        let report = m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 0));
        // Every processor asked for slot 0; the router pushed all four
        // injections to slot 3. Payloads still arrive on time.
        assert_eq!(report.delivered, 4);
        assert_eq!(report.profile.injections, vec![0, 0, 0, 4]);
        assert!(m.fault_stats().conserved());
    }

    struct StallPid(Pid, u64);
    impl crate::hook::DeliveryHook for StallPid {
        fn stalled(&self, superstep: u64, pid: Pid) -> bool {
            pid == self.0 && superstep == self.1
        }
    }

    #[test]
    fn stalled_processor_skips_a_superstep_and_keeps_its_inbox() {
        let mut m: BspMachine<Vec<u8>, u8> = BspMachine::new(params(4), |_| Vec::new());
        m.set_delivery_hook(Arc::new(StallPid(1, 1)));
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 5);
            }
        });
        // Superstep 1: pid 1 is stalled — it neither drains its inbox nor
        // runs its closure.
        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
        assert!(m.state(1).is_empty());
        // Superstep 2: the retained message is finally observed.
        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
        assert_eq!(m.state(1), &vec![5]);
        assert_eq!(m.fault_stats().stalled_steps, 1);
    }

    #[test]
    fn fault_counters_flow_into_trace_events() {
        use pbw_trace::RecordingSink;
        let sink = Arc::new(RecordingSink::new());
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_sink(sink.clone())
            .set_delivery_hook(Arc::new(DropFrom(0)));
        m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 0));
        let events = sink.take();
        let faults = events[0]
            .faults
            .expect("hooked machine must stamp fault counters");
        assert_eq!(faults.dropped, 1);
        assert_eq!(faults.duplicated, 0);
    }

    #[test]
    fn unhooked_machine_emits_no_fault_counters() {
        use pbw_trace::RecordingSink;
        let sink = Arc::new(RecordingSink::new());
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_sink(sink.clone());
        m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 0));
        assert_eq!(sink.take()[0].faults, None);
    }

    #[test]
    fn profiles_accumulate_per_superstep() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        for _ in 0..3 {
            m.superstep(|pid, _s, _in, out| {
                out.send((pid + 1) % 4, 0);
            });
        }
        assert_eq!(m.profiles().len(), 3);
        assert_eq!(m.superstep_index(), 3);
        for prof in m.profiles() {
            assert_eq!(prof.total_messages, 4);
        }
    }

    #[test]
    fn active_superstep_matches_dense_superstep() {
        use pbw_trace::RecordingSink;
        // Two senders fan a value out, receivers echo it back, then idle.
        // The sparse run must match the dense run on every observable.
        let senders = [2usize, 6];
        let program = |pid: Pid, s: &mut Vec<u8>, inbox: &[u8], out: &mut Outbox<u8>| {
            if senders.contains(&pid) {
                out.send(pid + 1, pid as u8);
            }
            for &v in inbox {
                s.push(v);
                if !senders.contains(&pid) {
                    out.send(pid - 1, v + 1);
                }
            }
        };
        let dense_sink = Arc::new(RecordingSink::new());
        let mut dense: BspMachine<Vec<u8>, u8> = BspMachine::new(params(8), |_| Vec::new());
        dense.set_sink(dense_sink.clone());
        let sparse_sink = Arc::new(RecordingSink::new());
        let mut sparse: BspMachine<Vec<u8>, u8> = BspMachine::new(params(8), |_| Vec::new());
        sparse.set_sink(sparse_sink.clone());
        for _ in 0..4 {
            dense.superstep(program);
            // After the first superstep all activity is inbox-driven, so
            // declaring only the original senders stays correct.
            sparse.superstep_active(&senders, program);
        }
        assert_eq!(dense.states(), sparse.states());
        assert_eq!(dense.profiles(), sparse.profiles());
        assert_eq!(dense_sink.take(), sparse_sink.take());
    }

    #[test]
    fn active_superstep_keeps_receivers_in_the_frontier() {
        // pid 0 sends to pid 5; the next superstep declares nobody active,
        // yet pid 5 must still run to drain its inbox.
        let mut m: BspMachine<Vec<u8>, u8> = BspMachine::new(params(8), |_| Vec::new());
        m.superstep_active(&[0], |pid, _s, _in, out| {
            if pid == 0 {
                out.send(5, 9);
            }
        });
        m.superstep_active(&[], |_pid, s, inbox, _out| {
            s.extend_from_slice(inbox);
        });
        assert_eq!(m.state(5), &vec![9]);
    }

    #[test]
    #[should_panic(expected = "active set names processor")]
    fn active_superstep_rejects_out_of_range_pid() {
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.superstep_active(&[4], |_pid, _s, _in, _out| {});
    }

    #[test]
    fn rejected_active_set_leaves_the_machine_unchanged() {
        let mut m: BspMachine<u64, u64> = BspMachine::new(params(4), |_| 0);
        m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, pid as u64 + 1));
        let before = m.canonical_hash();
        let err = m
            .try_superstep_active(&[1, 9], |_pid, s, _in, _out| *s = 99)
            .unwrap_err();
        assert_eq!(err, SimError::BadPid { pid: 9, p: 4 });
        assert_eq!(m.canonical_hash(), before);
        assert_eq!(m.superstep_index(), 1);
        // Still runnable, with the pending inboxes intact.
        m.superstep(|_pid, s, inbox, _out| *s = inbox[0]);
        assert_eq!(m.states(), &[4, 1, 2, 3]);
    }

    #[test]
    fn canonical_hash_tracks_behavioral_state() {
        let run = |extra: bool| {
            let mut m: BspMachine<u64, u64> = BspMachine::new(params(4), |_| 0);
            m.superstep(|pid, _s, _in, out| {
                out.send((pid + 1) % 4, pid as u64);
                if extra && pid == 0 {
                    out.send(2, 99);
                }
            });
            m
        };
        // Equal runs fingerprint equally; a diverging send does not.
        assert_eq!(run(false).canonical_hash(), run(false).canonical_hash());
        assert_ne!(run(false).canonical_hash(), run(true).canonical_hash());
        // Advancing the machine changes the fingerprint (superstep index
        // and inbox contents both move).
        let mut m = run(false);
        let before = m.canonical_hash();
        m.superstep(|_pid, s, inbox, _out| *s += inbox.iter().sum::<u64>());
        assert_ne!(before, m.canonical_hash());
    }

    #[test]
    fn canonical_hash_covers_the_pending_network_queue() {
        // Same visible inboxes/states, different in-network payloads: a
        // delayed message must show up in the fingerprint.
        let run = |delay: u32| {
            struct D(u32);
            impl DeliveryHook for D {
                fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                    if ctx.superstep == 0 {
                        Fate::Delay(self.0)
                    } else {
                        Fate::Deliver
                    }
                }
            }
            let mut m: BspMachine<(), u64> = BspMachine::new(params(4), |_| ());
            m.set_delivery_hook(Arc::new(D(delay)));
            m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, 7));
            m
        };
        assert_ne!(run(1).canonical_hash(), run(2).canonical_hash());
    }

    /// Crashes one pid over a half-open superstep range.
    struct CrashPid {
        pid: Pid,
        from: u64,
        until: u64,
    }
    impl crate::hook::DeliveryHook for CrashPid {
        fn crashed(&self, superstep: u64, pid: Pid) -> bool {
            pid == self.pid && (self.from..self.until).contains(&superstep)
        }
    }

    #[test]
    fn crashed_processor_is_silent_and_inbound_custody_charges_crashed() {
        let mut m: BspMachine<Vec<u8>, u8> = BspMachine::new(params(4), |_| Vec::new());
        m.set_delivery_hook(Arc::new(CrashPid {
            pid: 1,
            from: 1,
            until: 2,
        }));
        // Superstep 0: pid 1 alive; 0→1 delivers into its inbox.
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 5);
            }
        });
        assert_eq!(m.pending_inbox(1), &[5]);
        // Superstep 1: pid 1 is down. Its closure is skipped (the retained
        // [5] evaporates, uncharged — it was already counted delivered) and
        // pid 2's message to it is destroyed at the custody-transfer point.
        let r1 = m.superstep(|pid, s, inbox, out| {
            s.extend_from_slice(inbox);
            if pid == 2 {
                out.send(1, 9);
            }
        });
        assert_eq!(r1.delivered, 0);
        assert!(m.state(1).is_empty());
        assert!(m.pending_inbox(1).is_empty());
        // Superstep 2: pid 1 is back, with an empty inbox and no ghosts.
        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
        assert!(m.state(1).is_empty());
        let stats = m.fault_stats();
        assert_eq!(stats.injected, 2);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.crashed, 1);
        assert_eq!(stats.crash_steps, 1);
        assert_eq!(stats.stalled_steps, 0);
        assert!(stats.conserved(), "ledger {stats:?}");
    }

    #[test]
    fn delayed_payload_arriving_at_a_crashed_destination_is_destroyed() {
        struct DelayThenCrash;
        impl crate::hook::DeliveryHook for DelayThenCrash {
            fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                if ctx.superstep == 0 {
                    Fate::Delay(2)
                } else {
                    Fate::Deliver
                }
            }
            fn crashed(&self, superstep: u64, pid: Pid) -> bool {
                pid == 1 && superstep == 2
            }
        }
        let mut m: BspMachine<(), u8> = BspMachine::new(params(4), |_| ());
        m.set_delivery_hook(Arc::new(DelayThenCrash));
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 7);
            }
        });
        assert_eq!(m.faults_in_flight(), 1);
        let idle = |_: Pid, _: &mut (), _: &[u8], _: &mut Outbox<u8>| {};
        m.superstep(idle);
        // The payload falls due at the end of superstep 2 — exactly when
        // its destination is down. It dies in the network, charged crashed.
        let r2 = m.superstep(idle);
        assert_eq!(r2.delivered, 0);
        assert!(m.pending_inbox(1).is_empty());
        let stats = m.fault_stats();
        assert_eq!(stats.crashed, 1);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.delivered, 0);
        assert!(stats.conserved(), "ledger {stats:?}");
    }

    #[test]
    fn crash_overrides_stall_retention() {
        struct StallAndCrash;
        impl crate::hook::DeliveryHook for StallAndCrash {
            fn stalled(&self, superstep: u64, pid: Pid) -> bool {
                pid == 1 && superstep == 1
            }
            fn crashed(&self, superstep: u64, pid: Pid) -> bool {
                pid == 1 && superstep == 1
            }
        }
        let mut m: BspMachine<Vec<u8>, u8> = BspMachine::new(params(4), |_| Vec::new());
        m.set_delivery_hook(Arc::new(StallAndCrash));
        m.superstep(|pid, _s, _in, out| {
            if pid == 0 {
                out.send(1, 5);
            }
        });
        // Both predicates fire at superstep 1: crash wins, so the inbox is
        // *not* retained the way a pure stall would retain it.
        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
        m.superstep(|_pid, s, inbox, _out| s.extend_from_slice(inbox));
        assert!(m.state(1).is_empty());
        let stats = m.fault_stats();
        assert_eq!(stats.crash_steps, 1);
        assert_eq!(stats.stalled_steps, 0);
        assert!(stats.conserved(), "ledger {stats:?}");
    }

    #[test]
    fn sparse_and_dense_agree_under_crashes() {
        let hook = || {
            Arc::new(CrashPid {
                pid: 3,
                from: 1,
                until: 3,
            })
        };
        let program = |pid: Pid, s: &mut Vec<u8>, inbox: &[u8], out: &mut Outbox<u8>| {
            s.extend_from_slice(inbox);
            if pid < 4 {
                out.send(pid + 3, pid as u8);
            }
        };
        let mut dense: BspMachine<Vec<u8>, u8> = BspMachine::new(params(8), |_| Vec::new());
        dense.set_delivery_hook(hook());
        let mut sparse: BspMachine<Vec<u8>, u8> = BspMachine::new(params(8), |_| Vec::new());
        sparse.set_delivery_hook(hook());
        let senders = [0usize, 1, 2, 3];
        for _ in 0..4 {
            dense.superstep(program);
            sparse.superstep_active(&senders, program);
        }
        assert_eq!(dense.states(), sparse.states());
        assert_eq!(dense.fault_stats(), sparse.fault_stats());
        assert_eq!(dense.canonical_hash(), sparse.canonical_hash());
    }

    #[test]
    fn checkpoint_restore_round_trips_the_canonical_hash() {
        // Build a machine with every kind of captured state: retained
        // inboxes (via a stall), a non-empty pending network (via delays),
        // and a dirty ledger.
        struct Mixed;
        impl crate::hook::DeliveryHook for Mixed {
            fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                match (ctx.superstep, ctx.src) {
                    (0, 0) => Fate::Delay(3),
                    (0, 2) => Fate::Drop,
                    _ => Fate::Deliver,
                }
            }
            fn stalled(&self, superstep: u64, pid: Pid) -> bool {
                superstep == 1 && pid == 2
            }
        }
        let mut m: BspMachine<u64, u64> = BspMachine::new(params(4), |_| 0);
        m.set_delivery_hook(Arc::new(Mixed));
        m.superstep(|pid, _s, _in, out| out.send((pid + 1) % 4, pid as u64));
        m.superstep(|_pid, s, inbox, _out| *s += inbox.iter().sum::<u64>());
        assert!(m.faults_in_flight() > 0, "need in-network state");
        assert!(!m.pending_inbox(2).is_empty(), "need retained inbox state");

        let ckpt = m.checkpoint();
        let hash_at_ckpt = m.canonical_hash();
        assert_eq!(ckpt.superstep(), 2);
        assert_eq!(ckpt.pending_payloads(), 1);

        // Diverge: run more supersteps, then restore.
        m.superstep(|pid, s, inbox, out| {
            *s += inbox.iter().sum::<u64>();
            out.send((pid + 2) % 4, 40);
        });
        m.superstep(|_pid, s, inbox, _out| *s += inbox.iter().sum::<u64>());
        assert_ne!(m.canonical_hash(), hash_at_ckpt);

        m.restore(&ckpt);
        assert_eq!(m.canonical_hash(), hash_at_ckpt);
        assert_eq!(m.fault_stats(), ckpt.fault_stats());

        // The restored machine replays the same future: re-running the
        // diverging steps reproduces the post-divergence fingerprint.
        let mut replay_hash = || {
            m.superstep(|pid, s, inbox, out| {
                *s += inbox.iter().sum::<u64>();
                out.send((pid + 2) % 4, 40);
            });
            m.superstep(|_pid, s, inbox, _out| *s += inbox.iter().sum::<u64>());
            let h = m.canonical_hash();
            m.restore(&ckpt);
            h
        };
        assert_eq!(replay_hash(), replay_hash());
    }

    #[test]
    fn rollback_keeps_the_ledger_monotone_and_conserved() {
        struct DelayOdd;
        impl crate::hook::DeliveryHook for DelayOdd {
            fn fate(&self, ctx: &DeliveryCtx) -> Fate {
                if ctx.msg_idx % 2 == 1 {
                    Fate::Delay(3)
                } else {
                    Fate::Deliver
                }
            }
        }
        let mut m: BspMachine<u64, u64> = BspMachine::new(params(4), |_| 0);
        m.set_delivery_hook(Arc::new(DelayOdd));
        let round = |m: &mut BspMachine<u64, u64>| {
            m.superstep(|pid, s, inbox, out| {
                *s += inbox.iter().sum::<u64>();
                out.send((pid + 1) % 4, 1);
                out.send((pid + 2) % 4, 2);
            });
        };
        round(&mut m);
        let ckpt = m.checkpoint();
        let before = m.fault_stats();
        assert!(before.in_flight > 0);
        let b0: u64 = (0..4).map(|pid| ckpt.inbox_payloads(pid)).sum();
        let f0 = ckpt.pending_payloads();
        assert!(b0 > 0 && f0 > 0);

        round(&mut m);
        round(&mut m);
        let at_crash = m.fault_stats();
        let discarded = at_crash.in_flight;

        m.rollback(&ckpt);
        let after = m.fault_stats();
        // Machine state reverts…
        assert_eq!(m.superstep_index(), ckpt.superstep() as usize);
        for pid in 0..4 {
            assert_eq!(m.pending_inbox(pid).len() as u64, ckpt.inbox_payloads(pid));
        }
        // …but the ledger only grows, by exactly the rollback algebra.
        assert_eq!(after.crashed, at_crash.crashed + discarded);
        assert_eq!(after.restored, at_crash.restored + b0 + f0);
        assert_eq!(after.delivered, at_crash.delivered + b0);
        assert_eq!(after.in_flight, f0);
        assert!(after.conserved(), "ledger {after:?}");

        // A rolled-back machine plays the same future as a restored one:
        // only the ledger bookkeeping differs, never the behavior.
        round(&mut m);
        let states_after_rollback = m.states().to_vec();
        m.restore(&ckpt);
        round(&mut m);
        assert_eq!(m.states(), &states_after_rollback[..]);
    }
}
