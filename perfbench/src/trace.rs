//! The traced run's instruments: an in-memory span recorder placed around
//! the benchmark's calls into each layer, the per-layer busy/self-time
//! rollup derived from its spans, and a timing wrapper for the fault layer's
//! `DeliveryHook`, whose calls come from the engine's pool workers and are
//! too many to record one span each.

use pbw_models::FrontierMask;
use pbw_sim::{BatchDests, DeliveryCtx, DeliveryHook, Fate, Pid};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// 0 while open; a span left open by a panicking op is never closed and
    /// is skipped by the rollup.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// Records spans and per-op counts when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start attributing spans to op `op` (also drops any span a panicking
    /// op left open).
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.stack.clear();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let result = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        result
    }

    /// Add `value` to the run total of counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines: name, start, end, parent, op.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.iter().filter(|s| s.end_ns != 0) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, parent, s.op
            );
        }
        out
    }
}

/// Per-layer totals over a run's closed spans, in nanoseconds.
#[derive(Debug, Default)]
pub struct Rollup {
    /// Wall time inside spans of each name.
    pub busy_ns: BTreeMap<&'static str, u64>,
    /// Busy time minus the time covered by child spans.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Number of closed spans of each name.
    pub spans: BTreeMap<&'static str, u64>,
}

impl Rollup {
    pub fn of(spans: &[Span]) -> Self {
        let closed = |s: &Span| s.end_ns != 0;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter().filter(|s| closed(s)) {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut r = Rollup::default();
        for (s, &children) in spans.iter().zip(&child_ns).filter(|(s, _)| closed(s)) {
            let busy = s.end_ns - s.start_ns;
            *r.busy_ns.entry(s.name).or_default() += busy;
            *r.self_ns.entry(s.name).or_default() += busy.saturating_sub(children);
            *r.spans.entry(s.name).or_default() += 1;
        }
        r
    }

    pub fn busy_ms(&self, name: &str) -> f64 {
        self.busy_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn spans(&self, name: &str) -> u64 {
        self.spans.get(name).copied().unwrap_or(0)
    }
}

/// Call count and sampled call time of a [`TimedHook`]. Reading the clock
/// twice costs about as much as a `FaultPlan` call itself, so only one call
/// in [`HookMeter::SAMPLE`] is timed, picked by a Weyl sequence over the
/// call index so that no periodic call pattern aliases with the choice.
/// Time is summed over the pool workers that call the hook, so it can
/// exceed wall time.
#[derive(Debug, Default)]
pub struct HookMeter {
    calls: AtomicU64,
    sampled_calls: AtomicU64,
    sampled_ns: AtomicU64,
}

impl HookMeter {
    pub const SAMPLE: u64 = 8;

    fn sampled(call: u64) -> bool {
        call.wrapping_mul(0x9E37_79B9_7F4A_7C15) < u64::MAX / Self::SAMPLE
    }

    /// `(estimated busy ns, calls)`. Read after the op returns: the engine
    /// joins its workers before a superstep ends, which orders their
    /// updates before this read (the counters publish no other data, hence
    /// `Relaxed`).
    pub fn read(&self) -> (u64, u64) {
        let calls = self.calls.load(Ordering::Relaxed);
        let sampled = self.sampled_calls.load(Ordering::Relaxed);
        let ns = self.sampled_ns.load(Ordering::Relaxed);
        let busy = if sampled == 0 {
            0
        } else {
            (ns as f64 * calls as f64 / sampled as f64) as u64
        };
        (busy, calls)
    }
}

/// Forwards every `DeliveryHook` method to `inner`, so the engine takes
/// exactly the path it takes with `inner` alone, and meters the calls.
pub struct TimedHook {
    inner: Arc<dyn DeliveryHook>,
    meter: Arc<HookMeter>,
}

impl TimedHook {
    pub fn new(inner: Arc<dyn DeliveryHook>, meter: Arc<HookMeter>) -> Self {
        TimedHook { inner, meter }
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let call = self.meter.calls.fetch_add(1, Ordering::Relaxed);
        if !HookMeter::sampled(call) {
            return f();
        }
        let start = Instant::now();
        let result = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.meter.sampled_ns.fetch_add(ns, Ordering::Relaxed);
        self.meter.sampled_calls.fetch_add(1, Ordering::Relaxed);
        result
    }
}

impl DeliveryHook for TimedHook {
    fn fate(&self, ctx: &DeliveryCtx) -> Fate {
        self.timed(|| self.inner.fate(ctx))
    }

    fn fate_batch(
        &self,
        superstep: u64,
        src: Pid,
        dests: BatchDests<'_>,
        slots: &[u64],
        out: &mut Vec<Fate>,
    ) {
        self.timed(|| self.inner.fate_batch(superstep, src, dests, slots, out))
    }

    fn stalled(&self, superstep: u64, pid: Pid) -> bool {
        self.timed(|| self.inner.stalled(superstep, pid))
    }

    fn crashed(&self, superstep: u64, pid: Pid) -> bool {
        self.timed(|| self.inner.crashed(superstep, pid))
    }

    fn fill_fault_masks(
        &self,
        superstep: u64,
        stalled: &mut FrontierMask,
        crashed: &mut FrontierMask,
    ) {
        self.timed(|| self.inner.fill_fault_masks(superstep, stalled, crashed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "op",
                start_ns: 10,
                end_ns: 110,
                parent: None,
                op: 0,
            },
            Span {
                name: "a",
                start_ns: 20,
                end_ns: 50,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "b",
                start_ns: 60,
                end_ns: 100,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "a",
                start_ns: 200,
                end_ns: 0,
                parent: None,
                op: 1,
            },
        ];
        let r = Rollup::of(&spans);
        assert_eq!(r.busy_ns["op"], 100);
        assert_eq!(r.self_ns["op"], 30);
        assert_eq!(r.busy_ns["a"], 30);
        assert_eq!(r.spans("a"), 1, "the open span is skipped");
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new(true);
        t.begin_op(3);
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 3);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn hook_sampling_rate_is_one_in_eight() {
        let sampled = (0..80_000u64).filter(|&c| HookMeter::sampled(c)).count();
        assert!((9_000..11_000).contains(&sampled), "{sampled}");
        // Alternating call kinds (stall, crash, stall, …) are both sampled.
        let even = (0..80_000u64)
            .step_by(2)
            .filter(|&c| HookMeter::sampled(c))
            .count();
        assert!((4_500..5_500).contains(&even), "{even}");
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 5), 5);
        t.count("c", 1.0);
        assert!(t.spans().is_empty() && t.counts().is_empty());
    }
}
