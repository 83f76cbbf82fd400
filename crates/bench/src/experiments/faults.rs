//! Experiment for the fault-injection subsystem (`pbw-faults` +
//! `pbw-core::recovery`): cost inflation and delivery-time tails under
//! seeded message loss, and the stability-margin erosion the same loss
//! inflicts on the Section 6.2 dynamic router.

use super::with_point_sink;
use crate::table::{fmt, Table};
use pbw_adversary::{AlgorithmB, AqtParams, BackpressureConfig, SteadyAdversary};
use pbw_core::recovery::{run_with_recovery_to, RecoveryConfig};
use pbw_core::schedulers::UnbalancedSend;
use pbw_core::workload;
use pbw_faults::{FaultPlan, FaultSpec};
use pbw_models::MachineParams;
use rayon::prelude::*;
use std::sync::Arc;

/// The drop rates the sweep visits.
const PHIS: [f64; 4] = [0.0, 0.01, 0.05, 0.1];

/// Run the sweep with the default fault seed.
pub fn faults(quick: bool) -> String {
    faults_seeded(quick, 7)
}

/// Run the sweep with an explicit fault seed (`reproduce faults --seed N`).
/// Equal seeds replay bit-identically, including the trace stream — CI
/// diffs two such runs.
pub fn faults_seeded(quick: bool, seed: u64) -> String {
    let p = if quick { 128 } else { 256 };
    let g = 8u64;
    let l = 16u64;
    let params = MachineParams::from_gap(p, g, l);
    let wl = workload::single_hot_sender(p, (p as u64) * 8, 4, 2);
    let scheduler = UnbalancedSend::new(0.3);
    let cfg = RecoveryConfig::default();

    let mut out = String::new();
    out.push_str(&format!(
        "== Fault injection + retransmission recovery: p = {p}, g = {g}, m = {}, L = {l}, fault seed = {seed} ==\n",
        params.m
    ));
    out.push_str("Seeded drops on a hot-sender h-relation; ack/retransmit recovery with bounded\nexponential backoff. Inflation is cost(φ)/cost(0) per model.\n\n");

    let mut t = Table::new(vec![
        "φ",
        "rounds",
        "resent flits",
        "acks",
        "backoff",
        "BSP(g) cost",
        "BSP(g) infl.",
        "BSP(m) cost",
        "BSP(m) infl.",
        "arrival p99",
        "all delivered?",
    ]);
    // Sweep points are independent (each recovery owns its machine and
    // hook), so they run in parallel; replay + table rows stay sequential
    // in φ order.
    let global = pbw_trace::global_sink();
    let tracing = global.enabled();
    let outcomes: Vec<_> = PHIS
        .to_vec()
        .into_par_iter()
        .map(|phi| {
            let hook = if phi > 0.0 {
                Some(Arc::new(FaultPlan::new(FaultSpec::drop_only(phi), seed))
                    as Arc<dyn pbw_sim::DeliveryHook>)
            } else {
                None
            };
            with_point_sink(tracing, |sink| {
                run_with_recovery_to(sink, &wl, &scheduler, params, 11, hook, &cfg)
            })
        })
        .collect();
    let mut base: Option<(f64, f64)> = None;
    for (phi, (outcome, events)) in PHIS.into_iter().zip(outcomes) {
        for ev in events {
            global.record(ev);
        }
        let (g0, m0) = *base.get_or_insert((outcome.summary.bsp_g, outcome.summary.bsp_m_exp));
        t.row(vec![
            fmt(phi),
            outcome.rounds.to_string(),
            outcome.resent_flits.to_string(),
            outcome.ack_supersteps.to_string(),
            outcome.backoff_supersteps.to_string(),
            fmt(outcome.summary.bsp_g),
            fmt(outcome.summary.bsp_g / g0),
            fmt(outcome.summary.bsp_m_exp),
            fmt(outcome.summary.bsp_m_exp / m0),
            outcome
                .arrival_percentile(0.99)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            if outcome.delivered_all {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\n(φ = 0 takes the recovery path but is cost-identical to the reliable\n direct execution: one send superstep, zero acks, zero retransmissions.)\n");

    // Stability-margin erosion: the same loss process against Algorithm B.
    // Retransmissions inflate the effective arrival rate to α/(1−φ), so a
    // router provisioned near capacity destabilizes at φ* ≈ 1 − α(1+ε)/m.
    let (rp, rm, rw) = (64usize, 8usize, 128u64);
    let intervals = if quick { 150 } else { 500 };
    let algo = AlgorithmB {
        p: rp,
        m: rm,
        w: rw,
        eps: 0.3,
        seed: 9,
    };
    out.push_str(&format!(
        "\n== Algorithm B stability-margin erosion: p = {rp}, m = {rm}, w = {rw}, α = 5 ==\n"
    ));
    let mut t2 = Table::new(vec![
        "φ",
        "α/(1−φ)",
        "retransmitted",
        "growth/interval",
        "verdict",
        "p99 delay",
    ]);
    let erosion_phis = [PHIS[0], PHIS[1], PHIS[2], PHIS[3], 0.4];
    let traces: Vec<_> = erosion_phis
        .to_vec()
        .into_par_iter()
        .map(|phi| {
            let aqt = AqtParams {
                w: rw,
                alpha: 5.0,
                beta: 0.5,
            };
            let mut adv = SteadyAdversary::new(rp, aqt);
            with_point_sink(tracing, |sink| {
                algo.run_with_faults_to(&mut adv, intervals, phi, seed, sink)
            })
        })
        .collect();
    for (phi, (tr, events)) in erosion_phis.into_iter().zip(traces) {
        for ev in events {
            global.record(ev);
        }
        t2.row(vec![
            fmt(phi),
            fmt(5.0 / (1.0 - phi)),
            tr.retransmitted.to_string(),
            fmt(tr.backlog_growth()),
            if tr.looks_stable() {
                "stable".to_string()
            } else {
                "UNSTABLE".to_string()
            },
            tr.delay_percentile(0.99)
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    out.push_str(&t2.render());

    // Backpressure: the overloaded router behind a bounded queue sheds load
    // instead of diverging, and the trace reports post-burst recovery.
    let bp = BackpressureConfig::bounded(512);
    let aqt = AqtParams {
        w: rw,
        alpha: 12.0,
        beta: 0.5,
    };
    let mut adv = SteadyAdversary::new(rp, aqt);
    let tr = algo.run_with_backpressure(&mut adv, intervals, bp);
    let pending = tr.queue_msgs.last().copied().unwrap_or(0);
    out.push_str(&format!(
        "\n== Router backpressure under overload (α = 12 > m): bounded queue = {} ==\n\
         shed {} of {} injected ({}%), delivered {}, pending {}, overloaded {}/{} intervals,\n\
         post-burst recovery: {} (conservation: delivered + pending + shed = injected)\n",
        bp.max_queue_msgs,
        tr.shed_msgs,
        tr.injected,
        fmt(100.0 * tr.shed_msgs as f64 / tr.injected.max(1) as f64),
        tr.delivered,
        pending,
        tr.overload_intervals,
        intervals,
        tr.recovery_intervals()
            .map(|r| format!("{r} intervals"))
            .unwrap_or_else(|| "still overloaded".into()),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_report_shape() {
        let r = faults(true);
        // One sweep row per φ, a φ = 0 baseline with inflation exactly 1.
        for phi in PHIS {
            assert!(r.contains(&fmt(phi)), "missing φ = {phi} in\n{r}");
        }
        // Erosion: reliable run stable, φ = 0.4 unstable.
        assert!(r.contains("stable"), "{r}");
        assert!(r.contains("UNSTABLE"), "{r}");
        // Backpressure section reports shedding.
        assert!(r.contains("shed"), "{r}");
    }

    #[test]
    fn same_seed_reports_are_identical_and_seeds_matter() {
        let a = faults_seeded(true, 7);
        let b = faults_seeded(true, 7);
        assert_eq!(a, b);
        let c = faults_seeded(true, 8);
        assert_ne!(a, c);
    }
}
