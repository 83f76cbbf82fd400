//! Offline stand-in for `rayon` — with a real thread pool.
//!
//! The build environment has no registry access, so upstream rayon cannot be
//! fetched. Unlike the earlier sequential stand-in, this shim actually runs
//! parallel chains on a pool of `std::thread` workers ([`mod@pool`]): a
//! chain is cut into `min(n, width × 4)` contiguous index chunks, pool
//! threads claim chunks off a shared counter, and chunk results are merged
//! back **in index order** ([`mod@iter`]). A parallel call made inside a
//! pool task runs inline as one chunk, and a job never wakes more helpers
//! than the host has cores.
//!
//! Contract kept from upstream: `par_iter` / `par_iter_mut` /
//! `into_par_iter` with `map` / `zip` / `enumerate` / `collect`
//! (including `collect::<Result<_, _>>()`), `current_num_threads`, and
//! `ThreadPoolBuilder` → [`ThreadPool::install`]. Results are
//! element-for-element identical to sequential execution at every thread
//! count — the deterministic ordered merge is the load-bearing guarantee
//! the workspace's cross-thread-count conformance suite checks.
//!
//! Contract NOT kept: upstream's work-stealing scheduler and `join`; scoped
//! pools that own their workers (here `install` only pins the parallel
//! *width* for the calling thread; workers come from one global pool); and
//! parallel `sum`/`reduce` (deliberately omitted — floating-point tree
//! reductions would re-associate with the chunk count and break
//! cross-thread-count bit-equality; collect in order, reduce sequentially).
//!
//! Sizing: `PBW_THREADS` overrides `RAYON_NUM_THREADS` overrides
//! `std::thread::available_parallelism()`; a set variable that is not a
//! positive whole number panics, and a width of 1 short-circuits to
//! sequential execution on the caller.

pub mod iter;
pub mod pool;

pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuilder};

/// Everything a `use rayon::prelude::*;` site expects.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator, ParallelSliceExt,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_chains_like_rayon_call_sites() {
        let xs = vec![1u64, 2, 3];
        let mut ys = vec![10u64, 20, 30];
        let out: Vec<u64> = ys
            .par_iter_mut()
            .zip(xs.par_iter())
            .enumerate()
            .map(|(i, (y, x))| {
                *y += x;
                *y + i as u64
            })
            .collect();
        assert_eq!(out, vec![11, 23, 35]);
        assert_eq!(ys, vec![11, 22, 33]);
    }

    #[test]
    fn fallible_collect_works() {
        let xs = vec![1i32, 2, 3];
        let ok: Result<Vec<i32>, ()> = xs.par_iter().map(|&x| Ok(x * 2)).collect();
        assert_eq!(ok.unwrap(), vec![2, 4, 6]);
        let err: Result<Vec<i32>, i32> = xs
            .par_iter()
            .map(|&x| if x == 2 { Err(x) } else { Ok(x) })
            .collect();
        assert_eq!(err.unwrap_err(), 2);
    }

    #[test]
    fn range_into_par_iter() {
        let v: Vec<usize> = (0..5usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(v, vec![0, 1, 4, 9, 16]);
    }
}
