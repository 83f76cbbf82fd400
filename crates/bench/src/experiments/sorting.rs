//! The sample-sort study (after Gerbessiotis–Siniolakis, arXiv 1408.6729):
//! per-superstep BSP(g) vs BSP(m) predicted cost for BSP sample sort,
//! swept over oversampling ratio × input skew.
//!
//! The point the table makes is the paper's local/global split driven by
//! *data* instead of a hand-picked h-relation: the all-to-all bucket
//! exchange is staggered below `m` injections per slot, so BSP(m) charges
//! the aggregate `n/m` no matter how lopsided the buckets are, while
//! BSP(g) charges `g·max_bucket` — their ratio on the exchange superstep
//! is exactly the bucket imbalance `λ = max_bucket/(n/p)`. High
//! oversampling ratios drive λ → 1 (the models agree; the crossover),
//! low ratios under zipf skew leave λ ≫ 1 (they diverge), and a
//! duplicate-heavy keyset pins λ ≈ p/#values at *every* ratio — equal
//! keys are unsplittable, so that workload never crosses over.

use super::with_point_sink;
use crate::table::{fmt, Table};
use pbw_algos::sample_sort::{keyset, run_opts, KeyDist, SampleSortConfig, Sampling};
use pbw_models::{BspG, BspM, CostModel, MachineParams, PenaltyFn};
use rayon::prelude::*;

/// Oversampling ratios the sweep visits (samples per processor). The top
/// rung equals the block size `n/p` — regular sampling degenerates to
/// exact global quantiles there, the best any splitter choice can do.
const RATIOS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Models agree at a sweep point when the exchange-superstep BSP(g) price
/// is within 5% of the BSP(m) price.
const CROSSOVER: f64 = 1.05;

/// Human name of superstep `i` in the `⌈lg p⌉ + 3` layout.
fn step_name(i: usize, rounds: usize) -> &'static str {
    if i == 0 {
        "sort+sample"
    } else if i == 1 {
        "select"
    } else if i <= rounds {
        "bcast"
    } else if i == rounds + 1 {
        "exchange"
    } else {
        "merge"
    }
}

/// Run the sweep with the default seed.
pub fn sorting(quick: bool) -> String {
    sorting_seeded(quick, 7)
}

/// Run the sweep with an explicit seed (`reproduce sorting --seed N`).
/// The seed drives both the keysets and the seeded oversampling draws;
/// equal seeds replay bit-identically, trace stream included — CI diffs
/// two such runs.
pub fn sorting_seeded(quick: bool, seed: u64) -> String {
    // Every point is a p=32, n=2048 in-memory sort — already sub-second,
    // so quick mode shortens nothing and CI exercises the full table.
    let _ = quick;
    let p = 32;
    let per = 64;
    let n = p * per;
    let g = 4u64;
    let l = 8u64;
    let params = MachineParams::from_gap(p, g, l);

    let mut out = String::new();
    out.push_str(&format!(
        "== BSP sample sort: local vs. global price of bucket skew: p = {p}, n/p = {per}, g = {g}, m = {}, L = {l}, seed = {seed} ==\n",
        params.m
    ));
    out.push_str(
        "Seeded-oversampling sample sort (ratio samples/processor) on real supersteps;\n\
         exchange sends staggered below m per slot. Exch g/m = BSP(g)/BSP(m) on the\n\
         all-to-all exchange superstep alone — equal to the bucket imbalance λ =\n\
         max_bucket/(n/p) whenever the aggregate term n/m dominates. Gather g/m is\n\
         the same ratio on the sort+sample superstep, whose p·ratio fan-in to the\n\
         splitter processor is the opposite skew: it *grows* with the ratio.\n\n",
    );

    let grid: Vec<(KeyDist, usize)> = KeyDist::ALL
        .iter()
        .flat_map(|&d| RATIOS.iter().map(move |&r| (d, r)))
        .collect();
    let global = pbw_trace::global_sink();
    let tracing = global.enabled();
    let runs: Vec<_> = grid
        .clone()
        .into_par_iter()
        .map(|(dist, ratio)| {
            let cfg = SampleSortConfig {
                ratio,
                sampling: Sampling::Regular,
                seed,
            };
            let inputs = keyset(dist, n, seed);
            with_point_sink(tracing, |sink| {
                run_opts(params, &inputs, cfg, false, None, Some(sink))
            })
        })
        .collect();

    let bsp_g = BspG { g, l };
    let bsp_m = BspM {
        m: params.m,
        l,
        penalty: PenaltyFn::Exponential,
    };

    let mut t = Table::new(vec![
        "dist",
        "ratio",
        "max_bkt",
        "λ",
        "exch BSP(g)",
        "exch BSP(m)",
        "exch g/m",
        "gather g/m",
        "total BSP(g)",
        "total BSP(m)",
        "g-dominant",
        "sorted?",
    ]);
    let mut crossover: Vec<String> = Vec::new();
    let mut last_dist: Option<KeyDist> = None;
    for ((dist, ratio), (run, events)) in grid.into_iter().zip(runs) {
        for ev in events {
            global.record(ev);
        }
        let rounds = run.exchange_step - 1;
        let ex = &run.reports[run.exchange_step].profile;
        let gather = &run.reports[0].profile;
        let exch_ratio = bsp_g.superstep_cost(ex) / bsp_m.superstep_cost(ex);
        let gather_ratio = bsp_g.superstep_cost(gather) / bsp_m.superstep_cost(gather);
        let dominant = run
            .reports
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                bsp_g
                    .superstep_cost(&a.profile)
                    .total_cmp(&bsp_g.superstep_cost(&b.profile))
            })
            .map(|(i, _)| step_name(i, rounds))
            .unwrap_or("?");
        if last_dist != Some(dist) {
            last_dist = Some(dist);
            crossover.push(format!(
                "{}: none ≤ {}",
                dist.name(),
                RATIOS[RATIOS.len() - 1]
            ));
        }
        if exch_ratio <= CROSSOVER && crossover.last().is_some_and(|s| s.contains("none")) {
            let slot = crossover.last_mut().expect("pushed above");
            *slot = format!("{}: ratio {}", dist.name(), ratio);
        }
        t.row(vec![
            dist.name().to_string(),
            ratio.to_string(),
            run.max_bucket.to_string(),
            fmt(run.imbalance(per)),
            fmt(bsp_g.superstep_cost(ex)),
            fmt(bsp_m.superstep_cost(ex)),
            fmt(exch_ratio),
            fmt(gather_ratio),
            fmt(run.summary.bsp_g),
            fmt(run.summary.bsp_m_exp),
            dominant.to_string(),
            if run.ok {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nExchange crossover (first ratio with exch g/m ≤ {CROSSOVER}): {}.\n\
         (Uniform/presorted keysets cross over once the splitters are sampled finely\n\
         enough; zipf diverges hardest at low ratios — half its mass sits in a\n\
         narrow head the coarse splitters lump into one bucket — and floors at\n\
         λ ≈ 2 even under exact splitters, because its hot tie values each hold a\n\
         full block of unsplittable copies. The duplicate-heavy keyset never\n\
         crosses over at all: 8 distinct values pin λ ≈ p/8 = 4 (the saturation\n\
         point g, where BSP(m) switches from charging n/m to charging h and the\n\
         ratio stops growing) at every ratio. Meanwhile the gather g/m\n\
         column shows the dual skew: pid 0's p·ratio sample fan-in is priced g×\n\
         under the local restriction, so past the crossover BSP(g)'s dominant\n\
         superstep flips from the exchange to the sample gather — oversampling is\n\
         free globally but becomes the bottleneck locally.)\n",
        crossover.join(", ")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorting_report_shape() {
        let r = sorting(true);
        // Every sweep point actually sorts.
        assert_eq!(
            r.matches("yes").count(),
            KeyDist::ALL.len() * RATIOS.len(),
            "{r}"
        );
        assert!(!r.contains(" NO"), "{r}");
        assert!(r.contains("exch g/m"), "{r}");
        assert!(r.contains("Exchange crossover"), "{r}");
        // The never-crossing workload is called out as such.
        assert!(r.contains("dupheavy: none"), "{r}");
    }

    #[test]
    fn same_seed_reports_are_identical_and_seeds_matter() {
        let a = sorting_seeded(true, 7);
        let b = sorting_seeded(true, 7);
        assert_eq!(a, b);
        let c = sorting_seeded(true, 8);
        assert_ne!(a, c);
    }
}
