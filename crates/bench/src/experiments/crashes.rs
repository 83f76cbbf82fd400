//! Experiment for crash-stop failures + checkpoint/rollback recovery
//! (`pbw-core::recovery::checkpoint`): how the recovery overhead —
//! checkpoint-write h-relations, restore fan-ins, and replayed work —
//! prices under the *local* (BSP(g)) versus *global* (BSP(m)) bandwidth
//! restriction, swept over crash rate × checkpoint interval `k`.
//!
//! The separation the table exhibits is the paper's local/global split
//! applied to fault tolerance: a checkpoint write is a balanced h-relation
//! (every processor ships its state to a buddy), which BSP(g) charges
//! `g·h` while BSP(m)'s aggregate slots absorb it; a restore is a sparse
//! fan-in to just the restarted processors — nearly free globally, still
//! `g·h` locally.

use super::with_point_sink;
use crate::table::{fmt, Table};
use pbw_core::recovery::checkpoint::{run_with_checkpointed_recovery_to, CheckpointConfig};
use pbw_core::recovery::RecoveryConfig;
use pbw_core::schedulers::UnbalancedSend;
use pbw_core::workload;
use pbw_faults::{FaultPlan, FaultSpec};
use pbw_models::MachineParams;
use rayon::prelude::*;
use std::sync::Arc;

/// Crash onset probabilities (per processor-superstep) the sweep visits.
/// The machine-level crash probability per superstep is `1 − (1−φc)^p`, so
/// even these small rates make whole-machine outages routine.
const RATES: [f64; 4] = [0.0, 0.003, 0.01, 0.02];

/// Checkpoint intervals the sweep visits.
const INTERVALS: [u64; 3] = [1, 2, 4];

/// Run the sweep with the default fault seed.
pub fn crashes(quick: bool) -> String {
    crashes_seeded(quick, 7)
}

/// Run the sweep with an explicit fault seed (`reproduce crashes --seed N`).
/// Equal seeds replay bit-identically, including the trace stream — CI
/// diffs two such runs.
pub fn crashes_seeded(quick: bool, seed: u64) -> String {
    // The crash-rate ladder is calibrated to the machine-level outage
    // probability `1 − (1−φc)^p`, so `p` stays fixed across quick/full
    // (the flag shortens nothing here; every point is already sub-second).
    let _ = quick;
    let p = 64;
    let g = 8u64;
    let l = 16u64;
    let params = MachineParams::from_gap(p, g, l);
    let wl = workload::single_hot_sender(p, (p as u64) * 8, 4, 2);
    let scheduler = UnbalancedSend::new(0.3);
    let cfg = RecoveryConfig::default();
    let max_len = 2u64;

    let drop_rate = 0.02;

    let mut out = String::new();
    out.push_str(&format!(
        "== Crash-stop failures + checkpoint/rollback recovery: p = {p}, g = {g}, m = {}, L = {l}, fault seed = {seed} ==\n",
        params.m
    ));
    out.push_str(&format!(
        "Seeded crash-stop outages (onset rate φc per processor-superstep, outage ≤ 2\n\
         supersteps) on top of φ = {drop_rate} message loss, on a hot-sender h-relation;\n\
         superstep-consistent snapshots every k protocol supersteps, rollback +\n\
         wall-clock replay on failure. Overhead = checkpoint-write h-relations +\n\
         restore fan-ins, priced per model; the ratio column is the local/global\n\
         separation on that state traffic alone.\n\n",
    ));

    let grid: Vec<(u64, f64)> = INTERVALS
        .iter()
        .flat_map(|&k| RATES.iter().map(move |&r| (k, r)))
        .collect();
    let global = pbw_trace::global_sink();
    let tracing = global.enabled();
    let outcomes: Vec<_> = grid
        .clone()
        .into_par_iter()
        .map(|(k, rate)| {
            let spec = FaultSpec {
                drop_rate,
                crash_rate: rate,
                max_crash_len: max_len,
                ..FaultSpec::none()
            };
            let hook = Some(Arc::new(FaultPlan::new(spec, seed)) as Arc<dyn pbw_sim::DeliveryHook>);
            let ck = CheckpointConfig {
                interval: k,
                charge_state_io: true,
                max_rollbacks: 200,
            };
            with_point_sink(tracing, |sink| {
                run_with_checkpointed_recovery_to(
                    sink, &wl, &scheduler, params, 11, hook, &cfg, &ck,
                )
            })
        })
        .collect();

    let mut t = Table::new(vec![
        "k",
        "φc",
        "ckpts",
        "rollbacks",
        "replayed",
        "ovh BSP(g)",
        "ovh BSP(m)",
        "ovh g/m",
        "total BSP(g)",
        "total BSP(m)",
        "all delivered?",
    ]);
    for ((k, rate), (o, events)) in grid.into_iter().zip(outcomes) {
        for ev in events {
            global.record(ev);
        }
        t.row(vec![
            k.to_string(),
            fmt(rate),
            o.checkpoints.to_string(),
            o.rollbacks.to_string(),
            o.replayed_supersteps.to_string(),
            fmt(o.overhead.bsp_g),
            fmt(o.overhead.bsp_m_exp),
            fmt(o.overhead.bsp_g / o.overhead.bsp_m_exp.max(1.0)),
            fmt(o.total.bsp_g),
            fmt(o.total.bsp_m_exp),
            if o.gave_up {
                "GAVE UP".to_string()
            } else if o.recovery.delivered_all {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n(φc = 0 rows price pure checkpointing — no rollbacks, so their overhead is\n\
         checkpoint writes alone and the BSP(g)/BSP(m) gap in the overhead columns is\n\
         entirely the h-relation cost of state I/O under local vs. global bandwidth.\n\
         Larger k amortizes that write cost; larger φc pays for it in replayed work —\n\
         until k outgrows the crash-free intervals and recovery livelocks: the\n\
         gave-up row is the driver's rollback bound refusing to thrash forever.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbw_trace::NullSink;

    #[test]
    fn crashes_report_shape() {
        let r = crashes(true);
        // Every point recovers except the deliberately thrashing corner
        // (largest k × hottest rate), where the rollback bound fires.
        assert_eq!(
            r.matches("yes").count(),
            INTERVALS.len() * RATES.len() - 1,
            "exactly one sweep point gives up:\n{r}"
        );
        assert_eq!(r.matches("GAVE UP").count(), 1, "{r}");
        assert!(r.contains("ovh g/m"), "{r}");
    }

    #[test]
    fn same_seed_reports_are_identical_and_seeds_matter() {
        let a = crashes_seeded(true, 7);
        let b = crashes_seeded(true, 7);
        assert_eq!(a, b);
        let c = crashes_seeded(true, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn overhead_shows_the_local_global_separation() {
        // Price one sweep point directly: the checkpoint-write h-relations
        // must cost strictly more under the local restriction than the
        // global one — the non-trivial BSP(g)/BSP(m) gap the table prints.
        let p = 64;
        let params = MachineParams::from_gap(p, 8, 16);
        let wl = workload::single_hot_sender(p, (p as u64) * 8, 4, 2);
        let o = run_with_checkpointed_recovery_to(
            Arc::new(NullSink),
            &wl,
            &UnbalancedSend::new(0.3),
            params,
            11,
            None,
            &RecoveryConfig::default(),
            &CheckpointConfig::every(1),
        );
        assert!(o.checkpoints > 1);
        assert!(
            o.overhead.bsp_g > 1.5 * o.overhead.bsp_m_exp,
            "BSP(g) overhead {} vs BSP(m) {}",
            o.overhead.bsp_g,
            o.overhead.bsp_m_exp
        );
    }
}
