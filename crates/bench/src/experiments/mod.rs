//! The experiment suite. Each submodule exposes `run(quick) -> String`
//! returning a rendered report; the `reproduce` binary concatenates them.

pub mod crashes;
pub mod dynamics;
pub mod extensions;
pub mod faults;
pub mod scheduling;
pub mod separations;
pub mod sorting;

use pbw_trace::{NullSink, RecordingSink, TraceEvent, TraceSink};
use std::sync::Arc;

/// All experiment ids in presentation order.
pub const ALL: &[&str] = &[
    "table1",
    "broadcast-lb",
    "gvsm-routing",
    "unbalanced-send",
    "consecutive-send",
    "granular-send",
    "flits",
    "overhead",
    "penalty-ablation",
    "whp-phase",
    "preamble",
    "dynamic",
    "mg1",
    "faults",
    "crashes",
    "sorting",
    "cr-sim",
    "leader",
    "hrel-crcw",
    "hrel-randomized",
    "qsm-exercise",
    "collectives",
    "list-ranking-ablation",
    "sorting-ablation",
    "sensitivity-audit",
];

/// Run one sweep point against a private sink so the seeded sweeps
/// (`faults`, `crashes`, `sorting`) can execute their points in parallel:
/// the recorded events are replayed into the global sink in sweep order
/// afterwards, keeping trace output byte-identical at every thread count.
/// When the global sink is disabled nothing is recorded at all, matching
/// the sequential path's cost.
pub(crate) fn with_point_sink<R>(
    tracing: bool,
    run: impl FnOnce(Arc<dyn TraceSink>) -> R,
) -> (R, Vec<TraceEvent>) {
    if tracing {
        let rec = Arc::new(RecordingSink::new());
        let result = run(rec.clone());
        (result, rec.take())
    } else {
        (run(Arc::new(NullSink)), Vec::new())
    }
}

/// Dispatch one experiment by id (default fault seed).
pub fn run(id: &str, quick: bool) -> Option<String> {
    run_seeded(id, quick, 7)
}

/// Dispatch one experiment by id with an explicit seed. Only the seeded
/// experiments (currently `faults`, `crashes` and `sorting`) consume it;
/// the rest have their seeds pinned in-line so every report is
/// reproducible regardless.
pub fn run_seeded(id: &str, quick: bool, seed: u64) -> Option<String> {
    Some(match id {
        "faults" => faults::faults_seeded(quick, seed),
        "crashes" => crashes::crashes_seeded(quick, seed),
        "sorting" => sorting::sorting_seeded(quick, seed),
        "table1" => separations::table1(quick),
        "broadcast-lb" => separations::broadcast_lb(quick),
        "gvsm-routing" => separations::gvsm_routing(quick),
        "cr-sim" => separations::cr_sim(quick),
        "leader" => separations::leader(quick),
        "hrel-crcw" => separations::hrel_crcw(quick),
        "preamble" => separations::preamble(quick),
        "unbalanced-send" => scheduling::unbalanced_send(quick),
        "consecutive-send" => scheduling::consecutive_send(quick),
        "granular-send" => scheduling::granular_send(quick),
        "flits" => scheduling::flits(quick),
        "overhead" => scheduling::overhead(quick),
        "penalty-ablation" => scheduling::penalty_ablation(quick),
        "whp-phase" => scheduling::whp_phase(quick),
        "dynamic" => dynamics::dynamic(quick),
        "mg1" => dynamics::mg1(quick),
        "hrel-randomized" => extensions::hrel_randomized(quick),
        "qsm-exercise" => extensions::qsm_exercise(quick),
        "collectives" => extensions::collectives_exp(quick),
        "list-ranking-ablation" => extensions::list_ranking_ablation(quick),
        "sorting-ablation" => extensions::sorting_ablation(quick),
        "sensitivity-audit" => extensions::sensitivity_audit(quick),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_dispatches() {
        for id in ALL {
            assert!(run(id, true).is_some(), "{id} missing");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("nope", true).is_none());
    }
}
