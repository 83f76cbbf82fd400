//! `pbw-check` — run the bounded model checker from the command line.
//!
//! ```text
//! pbw-check                    # CI domain (p ≤ 3, 3 supersteps, ≤ 4 msgs)
//! pbw-check --wide             # widest domain (p ≤ 4, 4 supersteps, ≤ 6 msgs)
//! pbw-check --require-exhaustive   # exit 3 if the budget truncated the walk
//! pbw-check --self-test        # prove the checker catches a planted bug
//!                              # (needs --features check-selftest)
//! PBW_CHECK_BUDGET=500000 pbw-check   # override the engine-run budget
//! ```
//!
//! Exit codes (also printed by `--help`): 0 all invariants verified;
//! 1 counterexamples found; 2 usage error (an unknown argument, or a
//! `PBW_CHECK_BUDGET` that is not a whole number); 3 walk truncated under
//! `--require-exhaustive`; 4 `--self-test` without the feature;
//! 5 `--self-test` failed (planted violation went undetected).

use std::process::ExitCode;
use std::time::Instant;

use pbw_check::{run_all, Budget, Domain};

fn main() -> ExitCode {
    let mut wide = false;
    let mut self_test = false;
    let mut require_exhaustive = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--wide" => wide = true,
            "--self-test" => self_test = true,
            "--require-exhaustive" => require_exhaustive = true,
            "--help" | "-h" => {
                println!(
                    "usage: pbw-check [--wide] [--self-test] [--require-exhaustive]\n\
                     env: PBW_CHECK_BUDGET=<engine runs> (default {})\n\
                     exit codes:\n\
                       0  all invariants verified\n\
                       1  counterexample(s) found\n\
                       2  usage error (unknown argument, unparsable PBW_CHECK_BUDGET)\n\
                       3  walk truncated by budget (--require-exhaustive only)\n\
                       4  --self-test without the check-selftest feature\n\
                       5  --self-test failed: planted violation went undetected",
                    pbw_check::DEFAULT_BUDGET
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pbw-check: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    if self_test {
        return run_self_test();
    }
    let domain = if wide { Domain::wide() } else { Domain::ci() };
    let mut budget = match Budget::from_env() {
        Ok(budget) => budget,
        Err(e) => {
            eprintln!("pbw-check: {e}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let report = run_all(&domain, &mut budget);
    print!("{report}");
    println!("elapsed: {:.2?}", t0.elapsed());
    if !report.ok() {
        return ExitCode::FAILURE;
    }
    if report.truncated() {
        eprintln!("pbw-check: walk truncated by budget — NOT an exhaustiveness certificate");
        if require_exhaustive {
            return ExitCode::from(3);
        }
    }
    ExitCode::SUCCESS
}

/// With the `check-selftest` feature compiled in and `PBW_CHECK_SELFTEST`
/// set, the engine deliberately under-reports one delivery. A checker that
/// does not flag that immediately is not checking anything; this mode
/// *requires* the planted counterexample to surface.
#[cfg(feature = "check-selftest")]
fn run_self_test() -> ExitCode {
    std::env::set_var("PBW_CHECK_SELFTEST", "1");
    let domain = Domain {
        supersteps: 2,
        max_messages: 2,
        fates: vec![pbw_sim::Fate::Drop],
        ..Domain::ci()
    };
    let mut budget = Budget::new(20_000);
    let families = pbw_check::machine::explore(&domain, &mut budget);
    let caught = families.conservation.n_violations();
    if caught == 0 {
        eprintln!("pbw-check --self-test: FAILED — planted conservation violation went undetected");
        return ExitCode::from(5);
    }
    let first = &families.conservation.violations[0];
    println!(
        "pbw-check --self-test: OK — planted violation caught ({caught} counterexample(s); \
         first: {} / {})",
        first.subject, first.script
    );
    ExitCode::SUCCESS
}

#[cfg(not(feature = "check-selftest"))]
fn run_self_test() -> ExitCode {
    eprintln!(
        "pbw-check --self-test requires the planted bug to be compiled in:\n  \
         cargo run -p pbw-check --features check-selftest -- --self-test"
    );
    ExitCode::from(4)
}
