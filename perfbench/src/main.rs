//! Host-time benchmark of the parallel-bandwidth reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the named workload's inputs from the seed, sets up (pool,
//! autotuner and density probes, one warm-up op), then runs ops closed-loop
//! — one client, one op at a time — in whole passes over the workload's
//! instances for about `--seconds` seconds, checking every op against its
//! oracle outside the timed interval. Prints a run manifest, a digest of
//! the simulated statistics, and as the last line one JSON object holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics from an
//! interleaved traced/untraced run (`--trace 1`). NOTES.md describes the
//! workloads and metrics.

mod report;
mod trace;
mod workloads;

use report::{num, object, percentile, quote};
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use trace::{Rollup, Tracer};
use workloads::{Checked, FaultyRecovery, HrelSkewed, PaperSuite, SortDense, Workload};

const USAGE: &str =
    "usage: perfbench --workload <hrel-skewed|sort-dense|faulty-recovery|paper-suite> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Pool width unless `PBW_THREADS` is set.
const DEFAULT_POOL_WIDTH: &str = "1";

/// Child processes whose set-up is timed; `setup_s` is their median.
const SETUP_PROBES: usize = 11;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: set up, print `ready` and the warm-up op's record hash,
    /// exit.
    setup_probe: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    let mut setup_probe = false;
    while let Some(flag) = argv.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(int(&value)?),
            "--seconds" => seconds = int(&value)?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_probe,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // Pin the pool width before anything reads it; set-up probes (child
    // processes) inherit it. The default is one thread: on a 2-vCPU shared
    // host a second worker sped no workload up, made `peak_rss_mb` vary
    // up to 4x between runs and put whole runs into a slow mode whenever
    // another tenant held the second vCPU (NOTES.md, "Noise").
    if std::env::var_os("PBW_THREADS").is_none() {
        std::env::set_var("PBW_THREADS", DEFAULT_POOL_WIDTH);
    }
    let result = match args.workload.as_str() {
        "hrel-skewed" => drive(&args, HrelSkewed::new),
        "sort-dense" => drive(&args, SortDense::new),
        "faulty-recovery" => drive(&args, |seed| FaultyRecovery::new(seed, args.trace)),
        "paper-suite" => drive(&args, PaperSuite::new),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Set up as a timed run does before its first timed op: start the pool,
/// run the density probe, build the inputs, and make one warm-up op (which
/// also calibrates the pool's chunk autotuner). Returns the inputs and the
/// warm-up's record hash, or why the warm-up failed.
fn setup<W: Workload>(args: &Args, build: impl Fn(u64) -> W) -> (W, Result<String, String>) {
    rayon::current_num_threads();
    pbw_sim::density::crossover_factor();
    let w = build(args.seed);
    let warm = catch_unwind(AssertUnwindSafe(|| w.warm_up()))
        .map_err(panic_text)
        .and_then(|r| r)
        .map(|c| format!("{:016x}", report::fnv(c.record.as_bytes())));
    (w, warm)
}

/// One set-up probe: wall time from spawning it to its `ready` line, and
/// the record hash of its warm-up op (the same input in another process),
/// or `failed`.
fn probe_setup(args: &Args) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-probe")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start set-up probe: {e}"))?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("stdout is piped");
    let read = BufReader::new(stdout).read_line(&mut line);
    let elapsed = start.elapsed().as_secs_f64();
    let status = child
        .wait()
        .map_err(|e| format!("set-up probe lost: {e}"))?;
    match (read, line.trim().strip_prefix("ready ")) {
        (Ok(_), Some(hash)) if status.success() => Ok((elapsed, hash.to_string())),
        _ => Err(format!("set-up probe failed ({status})")),
    }
}

/// Everything one run observed.
struct Run {
    passes: u64,
    attempted: u64,
    failed: u64,
    /// Per-instance record of the first checked op; later ops must match.
    records: Vec<Option<Checked>>,
    mismatches: u64,
    /// Untraced op durations (s) and the simulated messages of their checked ops.
    plain_s: Vec<f64>,
    plain_ok: Vec<u64>,
    plain_msgs: u64,
    traced_s: Vec<f64>,
}

impl Run {
    fn settle(&mut self, i: usize, checked: Result<Checked, String>, op: u64) -> Option<u64> {
        match checked {
            Ok(c) => {
                match &self.records[i] {
                    Some(first) if first.record != c.record => {
                        self.mismatches += 1;
                        eprintln!(
                            "perfbench: op {op}: instance {i} digest differs from its first run"
                        );
                    }
                    Some(_) => {}
                    None => self.records[i] = Some(c.clone()),
                }
                Some(c.sim_msgs)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: op {op} (instance {i}) failed: {e}");
                None
            }
        }
    }
}

/// One op on instance `i`: timed, then checked outside the timed interval.
fn run_op<W: Workload>(
    w: &W,
    i: usize,
    op: u64,
    tr: &mut Tracer,
) -> (f64, Result<Checked, String>) {
    tr.begin_op(op);
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| tr.span("op", |tr| w.op(i, tr))));
    let secs = start.elapsed().as_secs_f64();
    let checked = out.map_err(panic_text).and_then(|out| {
        catch_unwind(AssertUnwindSafe(|| w.check(i, &out, tr)))
            .map_err(panic_text)
            .and_then(|r| r)
    });
    (secs, checked)
}

fn drive<W: Workload>(args: &Args, build: impl Fn(u64) -> W) -> Result<(), String> {
    if args.setup_probe {
        let (_, warm) = setup(args, build);
        println!("ready {}", warm.unwrap_or_else(|_| "failed".to_string()));
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        return Ok(());
    }
    let (w, warm) = setup(args, &build);
    let k = w.instances();
    let mut run = Run {
        passes: 0,
        attempted: 0,
        failed: 0,
        records: vec![None; k],
        mismatches: 0,
        plain_s: Vec::new(),
        plain_ok: vec![0; k],
        plain_msgs: 0,
        traced_s: Vec::new(),
    };
    // A failed warm-up is a failed op; the run goes on and counts the rest.
    run.attempted += 1;
    let warm_hash = warm.unwrap_or_else(|e| {
        run.failed += 1;
        eprintln!("perfbench: warm-up op failed: {e}");
        "failed".to_string()
    });

    let mut plain = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let budget = Duration::from_secs(args.seconds);
    // Set-up probes run between ops, spread evenly over the run, so that
    // `setup_s` samples the same drift in host speed as the ops do. The
    // main process waits for each, so nothing competes with them.
    let probe_due = |n: usize| budget * n as u32 / SETUP_PROBES as u32;
    let probes_wanted = if args.trace { 0 } else { SETUP_PROBES };
    let mut probes: Vec<(f64, String)> = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    loop {
        for i in 0..k {
            if probes.len() < probes_wanted && start.elapsed() >= probe_due(probes.len()) {
                probes.push(probe_setup(args)?);
            }
            // In a traced run each instance runs untraced and traced back to
            // back, alternating which goes first, so drift hits both alike.
            let order: &[bool] = match (args.trace, (run.passes + i as u64) % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &t in order {
                let tr = if t { &mut traced } else { &mut plain };
                let (secs, checked) = run_op(&w, i, op, tr);
                run.attempted += 1;
                let msgs = run.settle(i, checked, op);
                if t {
                    run.traced_s.push(secs);
                } else {
                    run.plain_s.push(secs);
                    if let Some(m) = msgs {
                        run.plain_msgs += m;
                        run.plain_ok[i] += 1;
                    }
                }
                op += 1;
            }
        }
        run.passes += 1;
        let elapsed = start.elapsed();
        if elapsed + elapsed / run.passes as u32 > budget {
            break;
        }
    }
    while probes.len() < probes_wanted {
        probes.push(probe_setup(args)?);
    }
    let setups: Vec<f64> = probes.iter().map(|(secs, _)| *secs).collect();
    let differing = probes.iter().filter(|(_, hash)| *hash != warm_hash).count() as u64;
    if differing > 0 {
        run.mismatches += differing;
        eprintln!(
            "perfbench: {differing} set-up probes' warm-up records differ from this process's"
        );
    }
    let metrics = if args.trace {
        write_spans(args, &traced);
        per_layer(&w, &run, &traced)
    } else {
        // Memory before the untimed counting reruns below.
        let peak_rss_mb = report::peak_rss_mb()?;
        for (i, &ok) in run.plain_ok.iter().enumerate() {
            if ok > 0 {
                run.plain_msgs += ok * w.uncounted_msgs(i);
            }
        }
        end_to_end(&run, &setups, peak_rss_mb)
    };
    let correct = run.failed == 0 && run.mismatches == 0;
    println!("{}", manifest(args, &w, &run, setups.len()));
    println!("{}", digest(args, &run));
    let metrics = object(
        metrics
            .iter()
            .map(|&(name, unit, v)| (name, object([("value", num(v)), ("unit", quote(unit))]))),
    );
    println!(
        "{}",
        object([
            ("correct", correct.to_string()),
            ("attempted", run.attempted.to_string()),
            ("failed", run.failed.to_string()),
            ("metrics", metrics),
        ])
    );
    Ok(())
}

fn end_to_end(
    run: &Run,
    setups: &[f64],
    peak_rss_mb: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let busy: f64 = run.plain_s.iter().sum();
    let ok: u64 = run.plain_ok.iter().sum();
    let ms: Vec<f64> = run.plain_s.iter().map(|s| s * 1e3).collect();
    vec![
        ("setup_s", "s", percentile(setups, 50.0)),
        ("ops_per_s", "1/s", ok as f64 / busy),
        ("op_p50_ms", "ms", percentile(&ms, 50.0)),
        ("op_p90_ms", "ms", percentile(&ms, 90.0)),
        ("sim_msgs_per_s", "1/s", run.plain_msgs as f64 / busy),
        ("peak_rss_mb", "MiB", peak_rss_mb),
        ("op_ok_rate", "frac", ok as f64 / run.plain_s.len() as f64),
    ]
}

fn per_layer<W: Workload>(
    w: &W,
    run: &Run,
    traced: &Tracer,
) -> Vec<(&'static str, &'static str, f64)> {
    let r = Rollup::of(traced.spans());
    let ops = run.traced_s.len().max(1) as f64;
    let busy = |span: &str| r.busy_ms(span) / ops;
    let count = |name: &str| traced.counts().get(name).copied().unwrap_or(0.0);
    let per_op = |name: &str| count(name) / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let steps = (r.spans("sim.bsp.superstep") + r.spans("sim.bsp.exchange")) as f64;
    let step_ms = r.busy_ms("sim.bsp.superstep") + r.busy_ms("sim.bsp.exchange");
    let (hook_ns, hook_calls) = w.hook_meter().unwrap_or((0, 0));
    let original = count("core.recovery.original_flits");
    let resent = count("core.recovery.resent_flits");
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
    let overhead = mean(&run.traced_s) / mean(&run.plain_s) - 1.0;
    vec![
        ("core.schedulers.busy_ms", "ms", busy("core.schedulers")),
        ("core.schedule.busy_ms", "ms", busy("core.schedule")),
        ("core.exec.busy_ms", "ms", busy("core.exec")),
        ("core.exec.flits", "count", per_op("core.exec.flits")),
        (
            "core.exec.active_senders",
            "count",
            per_op("core.exec.active_senders"),
        ),
        (
            "core.schedule.overloaded_slots",
            "count",
            per_op("core.schedule.overloaded_slots"),
        ),
        ("sim.bsp.busy_ms", "ms", busy("sim.bsp")),
        ("sim.bsp.self_ms", "ms", r.self_ms("sim.bsp") / ops),
        ("sim.bsp.superstep_ms", "ms", ratio(step_ms, steps)),
        ("sim.bsp.exchange_ms", "ms", busy("sim.bsp.exchange")),
        ("sim.bsp.supersteps", "count", steps / ops),
        ("sim.bsp.msgs", "count", per_op("sim.bsp.msgs")),
        ("sim.price.busy_ms", "ms", busy("sim.price")),
        ("algos.qsm_sort.busy_ms", "ms", busy("algos.qsm_sort")),
        ("core.recovery.busy_ms", "ms", busy("core.recovery")),
        (
            "core.recovery.rounds",
            "count",
            per_op("core.recovery.rounds"),
        ),
        (
            "core.recovery.rollbacks",
            "count",
            per_op("core.recovery.rollbacks"),
        ),
        (
            "core.recovery.replay_ratio",
            "frac",
            ratio(
                count("core.recovery.replayed"),
                count("core.recovery.executed"),
            ),
        ),
        (
            "core.recovery.useful_ratio",
            "frac",
            ratio(original, original + resent),
        ),
        ("faults.busy_ms", "ms", hook_ns as f64 / 1e6 / ops),
        ("faults.calls", "count", hook_calls as f64 / ops),
        (
            "experiments.scheduling.busy_ms",
            "ms",
            busy("experiments.scheduling"),
        ),
        (
            "experiments.separations.busy_ms",
            "ms",
            busy("experiments.separations"),
        ),
        (
            "experiments.dynamics.busy_ms",
            "ms",
            busy("experiments.dynamics"),
        ),
        (
            "experiments.extensions.busy_ms",
            "ms",
            busy("experiments.extensions"),
        ),
        (
            "experiments.faults.busy_ms",
            "ms",
            busy("experiments.faults"),
        ),
        (
            "experiments.crashes.busy_ms",
            "ms",
            busy("experiments.crashes"),
        ),
        (
            "experiments.sorting.busy_ms",
            "ms",
            busy("experiments.sorting"),
        ),
        ("op.self_ms", "ms", r.self_ms("op") / ops),
        ("trace.overhead_frac", "frac", overhead),
    ]
}

/// Spans of the traced run, one JSON line each, under `perfbench/out/`.
fn write_spans(args: &Args, traced: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, traced.to_jsonl()));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn manifest<W: Workload>(args: &Args, w: &W, run: &Run, setup_probes: usize) -> String {
    let params = object(w.params().into_iter().map(|(k, v)| (k, quote(&v))));
    let sampled = |pct: Option<u32>, n: usize| {
        let mut f = vec![("samples", n.to_string())];
        if let Some(p) = pct {
            f.insert(0, ("percentile", p.to_string()));
        }
        object(f)
    };
    let ops = run.plain_s.len();
    let metrics = if args.trace {
        object([
            ("per_layer", sampled(None, run.traced_s.len())),
            (
                "trace.overhead_frac",
                sampled(None, run.traced_s.len() + ops),
            ),
        ])
    } else {
        object([
            ("setup_s", sampled(Some(50), setup_probes)),
            ("op_p50_ms", sampled(Some(50), ops)),
            ("op_p90_ms", sampled(Some(90), ops)),
            ("ops_per_s", sampled(None, ops)),
            ("sim_msgs_per_s", sampled(None, ops)),
            ("op_ok_rate", sampled(None, ops)),
        ])
    };
    let fail_rate = run.failed as f64 / run.attempted.max(1) as f64;
    let fields = [
        ("benchmark", quote("perfbench")),
        ("workload", quote(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("load", quote("closed loop, 1 client, 1 op at a time")),
        ("pool_width", rayon::current_num_threads().to_string()),
        ("nproc", nproc().to_string()),
        (
            "density_factor",
            pbw_sim::density::crossover_factor().to_string(),
        ),
        ("revision", quote(env!("PERFBENCH_REVISION"))),
        ("source_digest", quote(env!("PERFBENCH_SOURCE_DIGEST"))),
        ("params", params),
        ("passes", run.passes.to_string()),
        ("attempted", run.attempted.to_string()),
        ("failed", run.failed.to_string()),
        ("op_fail_rate", num(fail_rate)),
        ("metrics", metrics),
    ];
    object([("manifest", object(fields))])
}

/// The simulated-statistics digest: a hash over every instance's record
/// and each statistic's mean over instances.
fn digest(args: &Args, run: &Run) -> String {
    let records: Vec<&Checked> = run.records.iter().flatten().collect();
    let mut all = String::new();
    let mut stats: Vec<(&str, f64)> = Vec::new();
    for c in &records {
        all.push_str(&c.record);
        all.push('\n');
        for &(name, v) in &c.stats {
            match stats.iter_mut().find(|(n, _)| *n == name) {
                Some((_, sum)) => *sum += v,
                None => stats.push((name, v)),
            }
        }
    }
    let n = records.len().max(1) as f64;
    let fields = [
        ("workload", quote(&args.workload)),
        (
            "hash",
            quote(&format!("{:016x}", report::fnv(all.as_bytes()))),
        ),
        ("instances", records.len().to_string()),
        ("consistent", (run.mismatches == 0).to_string()),
        (
            "mean",
            object(stats.into_iter().map(|(k, v)| (k, num(v / n)))),
        ),
    ];
    object([("digest", object(fields))])
}
