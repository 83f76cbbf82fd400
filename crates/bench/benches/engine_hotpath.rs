//! The superstep delivery hot path, isolated: these scenarios spend their
//! time in the engines' per-superstep bookkeeping (outbox staging, slot
//! resolution, inbox delivery, profile construction), not in user compute,
//! so they are the benches the CI regression gate pins: `scripts/bench_gate.sh`
//! runs them against the base revision built on the same host.
//!
//! Scenarios:
//!
//! * `bsp_ring/p1024` — 1024 processors, one message each: the minimal
//!   steady-state superstep, dominated by per-processor fixed costs.
//! * `bsp_fanout4/p1024` — each processor sends 4 messages; the delivery
//!   path handles 4096 payloads per superstep, so this is where buffer
//!   reuse vs. per-superstep reallocation shows up most.
//! * `qsm_rw/p1024` — a QSM phase mixing a read and a write per processor,
//!   exercising request staging, contention audit, and result delivery.
//! * `pram_step/p4096` — a 4096-processor EREW step (one read + one write
//!   each), exercising the PRAM record pool and audit scratch.

use criterion::{criterion_group, criterion_main, Criterion};
use pbw_models::MachineParams;
use pbw_pram::{AccessMode, Pram};
use pbw_sim::{BspMachine, QsmMachine};

fn bench_bsp_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_hotpath");
    group.sample_size(30);
    let p = 1024usize;
    let mp = MachineParams::from_gap(p, 16, 8);
    group.bench_function("bsp_ring/p1024", |b| {
        let mut machine: BspMachine<u64, u64> = BspMachine::new(mp, |_| 0);
        b.iter(|| {
            machine.superstep(|pid, s, inbox, out| {
                *s = s.wrapping_add(inbox.iter().sum::<u64>());
                out.send((pid + 1) % mp.p, pid as u64);
            })
        })
    });
    group.bench_function("bsp_fanout4/p1024", |b| {
        let mut machine: BspMachine<u64, u64> = BspMachine::new(mp, |_| 0);
        b.iter(|| {
            machine.superstep(|pid, s, inbox, out| {
                *s = s.wrapping_add(inbox.iter().sum::<u64>());
                for k in 1..=4usize {
                    out.send((pid + k) % mp.p, (pid + k) as u64);
                }
            })
        })
    });
    group.bench_function("qsm_rw/p1024", |b| {
        // Reads target the upper half of shared memory, writes the lower
        // half: a location is never both read and written in one phase.
        let mut machine: QsmMachine<u64> = QsmMachine::new(mp, 2 * p, |_| 0);
        b.iter(|| {
            machine.phase(|pid, s, res, ctx| {
                *s = s.wrapping_add(res.iter().map(|r| r.value as u64).sum::<u64>());
                ctx.read(mp.p + (pid + 1) % mp.p);
                ctx.write(pid, pid as i64);
            })
        })
    });
    group.bench_function("pram_step/p4096", |b| {
        let n = 4096usize;
        let mut pram = Pram::new(AccessMode::Erew, n);
        b.iter(|| {
            pram.step(n, |pid, ctx| {
                let v = ctx.read(pid);
                ctx.write(pid, v + 1);
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_bsp_ring);
criterion_main!(benches);
