//! The four workloads. Each builds its inputs from the seed with the
//! repository's own generators, runs one op through the layers' public
//! functions (spans from [`Tracer`] mark each layer call), and checks the
//! op's output against an oracle outside the timed interval.

use crate::trace::{HookMeter, TimedHook, Tracer};
use pbw_algos::sample_sort::{keyset, KeyDist, SampleSortConfig, SampleSortProgram, Sampling};
use pbw_algos::sample_sort::{SsMsg, SsState};
use pbw_algos::Measured;
use pbw_core::exec::{run_schedule_on_bsp, ExecOutcome};
use pbw_core::recovery::checkpoint::{
    run_with_checkpointed_recovery_to, CheckpointConfig, CheckpointedOutcome,
};
use pbw_core::recovery::RecoveryConfig;
use pbw_core::schedule::to_profile;
use pbw_core::schedulers::{Scheduler, UnbalancedSend};
use pbw_core::{evaluate_schedule, workload, Schedule, ScheduleCost, Workload as Relation};
use pbw_faults::{FaultPlan, FaultSpec};
use pbw_models::{MachineParams, PenaltyFn};
use pbw_sim::bsp::SuperstepReport;
use pbw_sim::{BspMachine, CostSummary, DeliveryHook, Word};
use pbw_trace::{NullSink, TraceEvent, TraceSink};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a workload is: its inputs (built from the seed before timing
/// starts), one op, and the op's oracle.
pub trait Workload {
    type Out;

    /// Manifest entries describing the inputs.
    fn params(&self) -> Vec<(&'static str, String)>;

    /// Distinct op inputs; a run makes whole passes over them.
    fn instances(&self) -> usize;

    /// One op on instance `i`, timed by the caller.
    fn op(&self, i: usize, tr: &mut Tracer) -> Self::Out;

    /// The oracle (outside the timed interval): the op's simulated
    /// statistics if its output is correct. In a traced run it also adds
    /// the op's layer counts to `tr`.
    fn check(&self, i: usize, out: &Self::Out, tr: &mut Tracer) -> Result<Checked, String>;

    /// Simulated messages of instance `i` that the op's output does not
    /// report, counted in an untimed rerun under a counting trace sink.
    fn uncounted_msgs(&self, _i: usize) -> u64 {
        0
    }

    /// The fault layer's `(busy_ns, calls)` totals in a traced run, for
    /// workloads that attach a fault hook.
    fn hook_meter(&self) -> Option<(u64, u64)> {
        None
    }

    /// The set-up's warm-up op: instance 0, checked.
    fn warm_up(&self) -> Result<Checked, String> {
        let mut off = Tracer::new(false);
        let out = self.op(0, &mut off);
        self.check(0, &out, &mut off)
    }
}

/// A checked op: its simulated-statistics record and the simulated
/// messages (flits, QSM requests) its engines delivered.
#[derive(Default, Clone)]
pub struct Checked {
    /// `name=value;` pairs, floats printed exactly; equal across reruns of
    /// the same instance unless the simulation changed.
    pub record: String,
    pub stats: Vec<(&'static str, f64)>,
    pub sim_msgs: u64,
}

impl Checked {
    fn stat(&mut self, name: &'static str, value: f64) -> &mut Self {
        let _ = write!(self.record, "{name}={value:?};");
        self.stats.push((name, value));
        self
    }

    fn summary(&mut self, prefix: &str, s: &CostSummary) -> &mut Self {
        let _ = write!(
            self.record,
            "{prefix}=[{:?},{:?},{:?},{:?},{:?},{:?},{:?}];",
            s.bsp_g,
            s.bsp_m_linear,
            s.bsp_m_exp,
            s.bsp_m_self,
            s.qsm_g,
            s.qsm_m_linear,
            s.qsm_m_exp
        );
        self
    }
}

/// Instance 0 of every workload is a reference input shared by all seeds.
/// The warm-up op runs on it, so set-up cost does not depend on the seed.
const REFERENCE_SEED: u64 = 7;

/// The seed of instance `i` in a run seeded with `seed`.
fn instance_seed(seed: u64, i: usize) -> u64 {
    mix(if i == 0 { REFERENCE_SEED } else { seed }, i as u64)
}

/// Mix a seed with an index (splitmix64 finalizer).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counts delivered messages in every trace event.
#[derive(Default)]
struct CountingSink(AtomicU64);

impl TraceSink for CountingSink {
    fn record(&self, event: TraceEvent) {
        self.0.fetch_add(event.delivered, Ordering::Relaxed);
    }
}

/// Messages delivered by every engine superstep that `f` runs, counted
/// through the process-wide trace sink (engines capture it when built).
fn count_delivered(f: impl FnOnce()) -> u64 {
    let sink = Arc::new(CountingSink::default());
    let previous = pbw_trace::set_global_sink(sink.clone());
    f();
    match previous {
        Some(prev) => pbw_trace::set_global_sink(prev),
        None => pbw_trace::clear_global_sink(),
    };
    sink.0.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// hrel-skewed
// ---------------------------------------------------------------------------

/// The Section 6 pipeline on a bimodal relation: about 1% hot senders,
/// every other processor idle.
pub struct HrelSkewed {
    params: MachineParams,
    relations: Vec<Relation>,
    seeds: Vec<u64>,
}

impl HrelSkewed {
    const P: usize = 1 << 16;
    const M: usize = Self::P / 8;
    const L: u64 = 16;
    const HOT_FRAC: f64 = 0.01;
    const HOT_MSGS: u64 = 512;
    const EPS: f64 = 0.3;
    const INSTANCES: usize = 4;

    pub fn new(seed: u64) -> Self {
        let seeds: Vec<u64> = (0..Self::INSTANCES)
            .map(|i| instance_seed(seed, i))
            .collect();
        HrelSkewed {
            params: MachineParams::from_bandwidth(Self::P, Self::M, Self::L),
            relations: seeds
                .iter()
                .map(|&s| workload::bimodal(Self::P, Self::HOT_FRAC, Self::HOT_MSGS, 0, s))
                .collect(),
            seeds,
        }
    }
}

impl Workload for HrelSkewed {
    type Out = (Schedule, ScheduleCost, ExecOutcome);

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("p", Self::P.to_string()),
            ("m", Self::M.to_string()),
            ("L", Self::L.to_string()),
            ("relation", "bimodal".to_string()),
            ("hot_frac", Self::HOT_FRAC.to_string()),
            ("hot_msgs", Self::HOT_MSGS.to_string()),
            ("cold_msgs", "0".to_string()),
            ("scheduler", format!("UnbalancedSend(eps={})", Self::EPS)),
            ("penalty", "exponential".to_string()),
            ("instances", Self::INSTANCES.to_string()),
        ]
    }

    fn instances(&self) -> usize {
        Self::INSTANCES
    }

    fn op(&self, i: usize, tr: &mut Tracer) -> Self::Out {
        let wl = &self.relations[i];
        let m = Self::M;
        let sched = tr.span("core.schedulers", |_| {
            UnbalancedSend::new(Self::EPS).schedule(wl, m, self.seeds[i])
        });
        let cost = tr.span("core.schedule", |_| {
            evaluate_schedule(&sched, wl, m, PenaltyFn::Exponential)
        });
        let exec = tr.span("core.exec", |_| {
            run_schedule_on_bsp(wl, &sched, self.params)
        });
        (sched, cost, exec)
    }

    fn check(&self, i: usize, out: &Self::Out, tr: &mut Tracer) -> Result<Checked, String> {
        let (sched, cost, exec) = out;
        let wl = &self.relations[i];
        let analytic = to_profile(sched, wl);
        let got = &exec.profile;
        if got.injections != analytic.injections
            || got.max_sent != analytic.max_sent
            || got.max_received != analytic.max_received
            || got.total_messages != analytic.total_messages
        {
            return Err("executed profile differs from to_profile".to_string());
        }
        let recv = wl.recv_counts();
        if exec.delivered.len() != recv.len()
            || exec
                .delivered
                .iter()
                .zip(&recv)
                .any(|(d, &y)| d.len() as u64 != y)
        {
            return Err("delivery counts differ from recv_counts".to_string());
        }
        let flits = wl.n_flits();
        tr.count("core.exec.flits", flits as f64);
        tr.count(
            "core.exec.active_senders",
            sched.active_senders().len() as f64,
        );
        tr.count(
            "core.schedule.overloaded_slots",
            cost.overloaded_slots as f64,
        );
        let mut c = Checked {
            sim_msgs: flits,
            ..Checked::default()
        };
        let injections: Vec<u8> = got
            .injections
            .iter()
            .flat_map(|n| n.to_le_bytes())
            .collect();
        let _ = write!(
            c.record,
            "injections_fnv={:016x};",
            crate::report::fnv(&injections)
        );
        c.summary("exec", &exec.summary)
            .stat("max_received", got.max_received as f64)
            .stat("ratio_to_opt", cost.ratio_to_opt)
            .stat("overloaded_slots", cost.overloaded_slots as f64)
            .stat("makespan", cost.makespan as f64)
            .stat("c_m", cost.c_m);
        Ok(c)
    }
}

// ---------------------------------------------------------------------------
// sort-dense
// ---------------------------------------------------------------------------

/// Table 1 row 5 in both model families on the same seeded keys: BSP sample
/// sort superstep by superstep, then the QSM(m) sample sort on the same
/// machine over a prefix of those keys (the QSM sort costs about three times
/// the BSP sort per key, so it gets fewer of them).
pub struct SortDense {
    params: MachineParams,
    keys: Vec<Vec<Word>>,
    programs: Vec<SampleSortProgram>,
}

/// The BSP machine after the sort, its superstep reports and its price,
/// then the QSM(m) sort's result.
pub type SortOut = (
    BspMachine<SsState, SsMsg>,
    Vec<SuperstepReport>,
    CostSummary,
    (Measured, CostSummary),
);

impl SortDense {
    const P: usize = 1024;
    const PER: usize = 128;
    const QSM_PER: usize = 16;
    const G: u64 = 8;
    const L: u64 = 16;
    const RATIO: usize = 8;
    const INSTANCES: usize = 4;

    pub fn new(seed: u64) -> Self {
        let keys: Vec<Vec<Word>> = (0..Self::INSTANCES)
            .map(|i| {
                keyset(
                    KeyDist::Uniform,
                    Self::P * Self::PER,
                    instance_seed(seed, i),
                )
            })
            .collect();
        let programs = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let cfg = SampleSortConfig {
                    ratio: Self::RATIO,
                    sampling: Sampling::Seeded,
                    seed: instance_seed(seed, i) ^ 0x5350_4c49_5454_4552,
                };
                SampleSortProgram::new(Self::P, k.clone(), cfg)
            })
            .collect();
        SortDense {
            params: MachineParams::from_gap(Self::P, Self::G, Self::L),
            keys,
            programs,
        }
    }

    fn qsm(&self, i: usize) -> (Measured, CostSummary) {
        pbw_algos::sort::qsm_m_detailed(self.params, &self.keys[i][..Self::P * Self::QSM_PER])
    }
}

impl Workload for SortDense {
    type Out = SortOut;

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("p", Self::P.to_string()),
            ("n_per_p", Self::PER.to_string()),
            ("g", Self::G.to_string()),
            ("m", self.params.m.to_string()),
            ("L", Self::L.to_string()),
            ("keys", "uniform".to_string()),
            (
                "bsp_sort",
                format!(
                    "sample sort, dense path, ratio {}, seeded sampling",
                    Self::RATIO
                ),
            ),
            ("qsm_n_per_p", Self::QSM_PER.to_string()),
            (
                "qsm_sort",
                "qsm_m_detailed on the same machine over a key prefix".to_string(),
            ),
            ("instances", Self::INSTANCES.to_string()),
        ]
    }

    fn instances(&self) -> usize {
        Self::INSTANCES
    }

    fn op(&self, i: usize, tr: &mut Tracer) -> Self::Out {
        let prog = &self.programs[i];
        let (machine, reports) = tr.span("sim.bsp", |tr| {
            let mut machine = prog.machine(self.params);
            let reports: Vec<SuperstepReport> = (0..prog.supersteps())
                .map(|step| {
                    let name = if step == prog.exchange_step() {
                        "sim.bsp.exchange"
                    } else {
                        "sim.bsp.superstep"
                    };
                    tr.span(name, |_| prog.apply_next(&mut machine, false))
                })
                .collect();
            (machine, reports)
        });
        let price = tr.span("sim.price", |_| {
            CostSummary::price(self.params, machine.profiles())
        });
        let qsm = tr.span("algos.qsm_sort", |_| self.qsm(i));
        (machine, reports, price, qsm)
    }

    fn check(&self, i: usize, out: &Self::Out, tr: &mut Tracer) -> Result<Checked, String> {
        let (machine, reports, price, (qsm, qsm_price)) = out;
        let mut oracle = self.keys[i].clone();
        oracle.sort_unstable();
        let output: Vec<Word> = machine
            .states()
            .iter()
            .flat_map(|s| s.result.iter().copied())
            .collect();
        if output != oracle {
            return Err("BSP sample sort output is not the sorted input".to_string());
        }
        // The QSM sort keeps its output inside the function; `ok` is its
        // comparison against the columnsort reference sorter.
        if !qsm.ok {
            return Err("QSM(m) sort output is not the sorted input".to_string());
        }
        let max_bucket = reports[self.programs[i].exchange_step()]
            .profile
            .max_received;
        let bsp_msgs: u64 = reports.iter().map(|r| r.delivered).sum();
        tr.count("sim.bsp.msgs", bsp_msgs as f64);
        let mut c = Checked {
            sim_msgs: bsp_msgs,
            ..Checked::default()
        };
        c.summary("bsp", price)
            .summary("qsm", qsm_price)
            .stat("lambda", max_bucket as f64 / Self::PER as f64)
            .stat("bsp_supersteps", reports.len() as f64)
            .stat("qsm_phases", qsm.rounds as f64)
            .stat("qsm_time", qsm.time);
        Ok(c)
    }

    fn uncounted_msgs(&self, i: usize) -> u64 {
        count_delivered(|| {
            self.qsm(i);
        })
    }
}

// ---------------------------------------------------------------------------
// faulty-recovery
// ---------------------------------------------------------------------------

/// Checkpointed recovery on a hot-sender relation under message drops and
/// crash-stop outages; every instance draws its own fault plan.
pub struct FaultyRecovery {
    params: MachineParams,
    relation: Relation,
    plans: Vec<Arc<FaultPlan>>,
    seeds: Vec<u64>,
    /// Set in traced runs: the fault layer's calls are timed through it.
    meter: Option<Arc<HookMeter>>,
}

impl FaultyRecovery {
    const P: usize = 1024;
    const G: u64 = 8;
    const L: u64 = 16;
    const HOT_MSGS: u64 = 8 * Self::P as u64;
    const COLD_MSGS: u64 = 4;
    const DROP: f64 = 0.02;
    /// The `crashes` experiment's 0.003 at p = 64, scaled as 1/p.
    const CRASH_RATE: f64 = 2e-4;
    const MAX_CRASH_LEN: u64 = 2;
    const INTERVAL: u64 = 2;
    const MAX_ROLLBACKS: u32 = 64;
    const EPS: f64 = 0.3;
    const INSTANCES: usize = 256;

    pub fn new(seed: u64, traced: bool) -> Self {
        let spec = FaultSpec {
            drop_rate: Self::DROP,
            crash_rate: Self::CRASH_RATE,
            max_crash_len: Self::MAX_CRASH_LEN,
            ..FaultSpec::none()
        };
        let seeds: Vec<u64> = (0..Self::INSTANCES)
            .map(|i| instance_seed(seed, i))
            .collect();
        FaultyRecovery {
            params: MachineParams::from_gap(Self::P, Self::G, Self::L),
            // One relation for all seeds; the fault plans carry the seed.
            relation: workload::single_hot_sender(
                Self::P,
                Self::HOT_MSGS,
                Self::COLD_MSGS,
                REFERENCE_SEED,
            ),
            plans: seeds
                .iter()
                .map(|&s| Arc::new(FaultPlan::new(spec, s ^ 0xFA17)))
                .collect(),
            seeds,
            meter: traced.then(|| Arc::new(HookMeter::default())),
        }
    }
}

impl Workload for FaultyRecovery {
    type Out = CheckpointedOutcome;

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("p", Self::P.to_string()),
            ("g", Self::G.to_string()),
            ("m", self.params.m.to_string()),
            ("L", Self::L.to_string()),
            ("relation", "single_hot_sender".to_string()),
            ("hot_msgs", Self::HOT_MSGS.to_string()),
            ("cold_msgs", Self::COLD_MSGS.to_string()),
            ("drop_rate", Self::DROP.to_string()),
            ("crash_rate", Self::CRASH_RATE.to_string()),
            ("max_crash_len", Self::MAX_CRASH_LEN.to_string()),
            ("checkpoint_interval", Self::INTERVAL.to_string()),
            ("max_rollbacks", Self::MAX_ROLLBACKS.to_string()),
            ("scheduler", format!("UnbalancedSend(eps={})", Self::EPS)),
            ("instances", Self::INSTANCES.to_string()),
        ]
    }

    fn instances(&self) -> usize {
        Self::INSTANCES
    }

    fn op(&self, i: usize, tr: &mut Tracer) -> Self::Out {
        let plan: Arc<dyn DeliveryHook> = self.plans[i].clone();
        let hook: Arc<dyn DeliveryHook> = match (&self.meter, tr.on()) {
            (Some(meter), true) => Arc::new(TimedHook::new(plan, meter.clone())),
            _ => plan,
        };
        let ck = CheckpointConfig {
            interval: Self::INTERVAL,
            charge_state_io: true,
            max_rollbacks: Self::MAX_ROLLBACKS,
        };
        tr.span("core.recovery", |_| {
            run_with_checkpointed_recovery_to(
                Arc::new(NullSink),
                &self.relation,
                &UnbalancedSend::new(Self::EPS),
                self.params,
                self.seeds[i],
                Some(hook),
                &RecoveryConfig::default(),
                &ck,
            )
        })
    }

    fn check(&self, _i: usize, out: &Self::Out, tr: &mut Tracer) -> Result<Checked, String> {
        let rec = &out.recovery;
        if out.gave_up {
            return Err("recovery gave up at the rollback bound".to_string());
        }
        if !rec.delivered_all {
            return Err("recovery left flits undelivered".to_string());
        }
        if !rec.fault_stats.conserved() {
            return Err("fault ledger is not conserved".to_string());
        }
        let executed = rec.profiles.len() as f64;
        let original = self.relation.n_flits() as f64;
        tr.count("core.recovery.rounds", f64::from(rec.rounds));
        tr.count("core.recovery.rollbacks", f64::from(out.rollbacks));
        tr.count("core.recovery.replayed", out.replayed_supersteps as f64);
        tr.count("core.recovery.executed", executed);
        tr.count("core.recovery.original_flits", original);
        tr.count("core.recovery.resent_flits", rec.resent_flits as f64);
        let fs = &rec.fault_stats;
        // Goodput: every flit of the relation arrived once. Retransmissions,
        // acks and duplicates are the waste `core.recovery.useful_ratio`
        // measures, and their number varies with the seed's fault plans.
        let mut c = Checked {
            sim_msgs: self.relation.n_flits(),
            ..Checked::default()
        };
        c.summary("total", &out.total)
            .stat("rounds", f64::from(rec.rounds))
            .stat("rollbacks", f64::from(out.rollbacks))
            .stat("checkpoints", out.checkpoints as f64)
            .stat("replayed_supersteps", out.replayed_supersteps as f64)
            .stat("executed_supersteps", executed)
            .stat("resent_flits", rec.resent_flits as f64)
            .stat("delivered", fs.delivered as f64)
            .stat("dropped", fs.dropped as f64)
            .stat("crashed", fs.crashed as f64);
        Ok(c)
    }

    fn hook_meter(&self) -> Option<(u64, u64)> {
        self.meter.as_ref().map(|m| m.read())
    }
}

// ---------------------------------------------------------------------------
// paper-suite
// ---------------------------------------------------------------------------

/// One op is one full pass of the `reproduce` suite: all 25 experiments at
/// full size, each in a span of its module. Experiment times run from 2 ms
/// to 0.5 s, so with one experiment per op the median op fell in the gap
/// between two experiments' times and jumped between them from run to run.
/// The experiments run at `reproduce`'s default seed: the seeded ones cost
/// up to 3x more on some seeds. The run seed sets their order in the pass.
pub struct PaperSuite {
    order: Vec<&'static str>,
}

/// `reproduce`'s default experiment seed.
const EXPERIMENT_SEED: u64 = 7;

/// The experiment module behind each id, as `experiments::run_seeded`
/// dispatches it.
pub fn module_of(id: &str) -> &'static str {
    match id {
        "table1" | "broadcast-lb" | "gvsm-routing" | "cr-sim" | "leader" | "hrel-crcw"
        | "preamble" => "experiments.separations",
        "unbalanced-send" | "consecutive-send" | "granular-send" | "flits" | "overhead"
        | "penalty-ablation" | "whp-phase" => "experiments.scheduling",
        "dynamic" | "mg1" => "experiments.dynamics",
        "faults" => "experiments.faults",
        "crashes" => "experiments.crashes",
        "sorting" => "experiments.sorting",
        _ => "experiments.extensions",
    }
}

impl PaperSuite {
    pub fn new(seed: u64) -> Self {
        let mut order = pbw_bench::experiments::ALL.to_vec();
        for j in (1..order.len()).rev() {
            order.swap(j, (mix(seed, j as u64) % (j as u64 + 1)) as usize);
        }
        PaperSuite { order }
    }

    fn run(id: &str) -> Option<String> {
        pbw_bench::experiments::run_seeded(id, false, EXPERIMENT_SEED)
    }
}

/// A non-empty report, or why not.
fn report_of<'a>(id: &str, out: &'a Option<String>) -> Result<&'a str, String> {
    match out {
        Some(r) if !r.trim().is_empty() => Ok(r),
        Some(_) => Err(format!("{id}: empty report")),
        None => Err(format!("{id}: unknown experiment id")),
    }
}

impl Workload for PaperSuite {
    type Out = Vec<Option<String>>;

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("experiments", self.order.join(",")),
            ("quick", "false".to_string()),
            ("experiment_seed", EXPERIMENT_SEED.to_string()),
            ("warm_up", "table1".to_string()),
        ]
    }

    fn instances(&self) -> usize {
        1
    }

    fn op(&self, _i: usize, tr: &mut Tracer) -> Self::Out {
        self.order
            .iter()
            .map(|&id| tr.span(module_of(id), |_| Self::run(id)))
            .collect()
    }

    fn check(&self, _i: usize, out: &Self::Out, _tr: &mut Tracer) -> Result<Checked, String> {
        let mut c = Checked::default();
        let mut bytes = 0;
        for (id, out) in self.order.iter().zip(out) {
            let report = report_of(id, out)?;
            let _ = write!(
                c.record,
                "{id}={:016x};",
                crate::report::fnv(report.as_bytes())
            );
            bytes += report.len();
        }
        c.stat("report_bytes", bytes as f64);
        Ok(c)
    }

    fn uncounted_msgs(&self, _i: usize) -> u64 {
        count_delivered(|| {
            for id in &self.order {
                Self::run(id);
            }
        })
    }

    /// A full pass is too long to repeat in every set-up probe; the
    /// warm-up is the first experiment, `table1`, alone.
    fn warm_up(&self) -> Result<Checked, String> {
        let out = Self::run("table1");
        let report = report_of("table1", &out)?;
        let mut c = Checked::default();
        let _ = write!(
            c.record,
            "table1={:016x};",
            crate::report::fnv(report.as_bytes())
        );
        Ok(c)
    }
}
