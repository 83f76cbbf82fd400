//! Data-oriented batch kernels for the superstep communication passes.
//!
//! The engines keep a flat structure-of-arrays destination lane next to
//! every outbox (`Outbox::dests`), so the counting pass — "how many payloads
//! land in each destination arena this superstep?" — never has to walk
//! `Envelope` structs (whose inline payloads make the walk a cache-miss per
//! message for any non-trivial `M`). The kernel here sweeps the `usize`
//! lane directly, counting straight into the arena's segment table.
//!
//! It is bit-equivalent to the scalar per-envelope loop it replaced;
//! `#[cfg(test)]` keeps that scalar reference alive and the proptest below
//! pins the equivalence on random inputs — including the empty batch and a
//! single message.

use crate::arena::MsgArena;
use crate::hook::Fate;
use crate::Pid;
use pbw_models::FrontierMask;

/// Whether `fate` places a payload into the destination arena *this*
/// superstep (drops never arrive; delays arrive in a later superstep).
#[inline(always)]
pub(crate) fn counts_now(fate: Fate) -> bool {
    matches!(fate, Fate::Deliver | Fate::Duplicate | Fate::Displace(_))
}

/// Hooked counting: count one sender's destination lane into the arena
/// being filled, message `i` only if its fate arrives this superstep and
/// its destination is alive. The crash lane is read word-wise out of the
/// [`FrontierMask`]: one shift + mask per destination, no byte table.
pub(crate) fn count_fated<M>(
    dests: &[Pid],
    fates: &[Fate],
    crashed: &FrontierMask,
    fill: &mut MsgArena<M>,
) {
    debug_assert_eq!(dests.len(), fates.len());
    for (&d, &f) in dests.iter().zip(fates) {
        if counts_now(f) && !crashed.contains(d) {
            fill.count(d, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar per-envelope loop the kernels replaced, verbatim
    /// (per-pid bool flags, as the engines carried before the mask).
    fn scalar_count(dests: &[Pid], fates: Option<&[Fate]>, crashed: &[bool], counts: &mut [usize]) {
        for (msg_idx, &dest) in dests.iter().enumerate() {
            let fate = match fates {
                Some(f) => f[msg_idx],
                None => Fate::Deliver,
            };
            match fate {
                Fate::Deliver | Fate::Duplicate | Fate::Displace(_) => {
                    if !(fates.is_some() && crashed[dest]) {
                        counts[dest] += 1;
                    }
                }
                Fate::Drop | Fate::Delay(_) => {}
            }
        }
    }

    /// Lift the scalar reference's bool flags into the mask the kernels take.
    fn crash_mask_of(crashed: &[bool]) -> FrontierMask {
        let mut m = FrontierMask::new(crashed.len());
        for (pid, &c) in crashed.iter().enumerate() {
            if c {
                m.insert(pid);
            }
        }
        m
    }

    fn fate_strategy() -> impl Strategy<Value = Fate> {
        (0u32..5, 1u32..4, 1u64..4).prop_map(|(k, d, s)| match k {
            0 => Fate::Deliver,
            1 => Fate::Drop,
            2 => Fate::Duplicate,
            3 => Fate::Delay(d),
            _ => Fate::Displace(s),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The hooked kernel matches the scalar loop slot-for-slot — lengths
        // 0..40 cover empty, single-message, and long lanes.
        #[test]
        fn fated_count_matches_scalar(
            p in 1usize..16,
            msgs in proptest::collection::vec((0usize..16, fate_strategy()), 0..40),
            crash_mask in 0u16..u16::MAX,
        ) {
            let dests: Vec<Pid> = msgs.iter().map(|(d, _)| d % p).collect();
            let fates: Vec<Fate> = msgs.iter().map(|&(_, f)| f).collect();
            let crashed: Vec<bool> = (0..p).map(|i| crash_mask & (1 << i) != 0).collect();

            let mut dense = vec![0usize; p];
            scalar_count(&dests, Some(&fates), &crashed, &mut dense);
            let mut arena: MsgArena<()> = MsgArena::new(p);
            count_fated(&dests, &fates, &crash_mask_of(&crashed), &mut arena);
            arena.begin_counted();
            for (pid, &d) in dense.iter().enumerate() {
                prop_assert_eq!(arena.len(pid), d, "hooked pid {}", pid);
            }
        }
    }
}
