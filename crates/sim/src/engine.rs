//! Deterministic parallel fan-out for sweeps, grids, and experiment drivers.
//!
//! The paper's figures are dense grids of independent simulations —
//! throughput vs. batch for every model × recipe × GPU (Fig. 8, 14–15),
//! max-batch searches (Table III), sensitivity studies — which makes them
//! embarrassingly parallel. This module provides a scoped-thread pool
//! (`std::thread::scope`, no external dependencies) that maps a pure
//! function over a slice across cores and returns results **in input
//! order**, so every experiment artifact stays byte-for-byte identical no
//! matter how many workers ran.
//!
//! Thread count comes from the `FTSIM_THREADS` environment variable and
//! defaults to the machine's available parallelism. With one thread (or one
//! item) the map degenerates to a plain serial loop — same results, zero
//! threading overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The process-wide worker count: `FTSIM_THREADS` if set to a positive
/// integer, otherwise the machine's available parallelism, resolved once
/// and shared with the tensor kernels.
pub use ftsim_tensor::parallel::{thread_count, THREADS_ENV};

/// Maps `f` over `items` using [`thread_count`] workers; results come back
/// in input order regardless of scheduling.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(thread_count(), items, f)
}

/// [`parallel_map`] with an explicit worker count. `threads <= 1` (or a
/// single item) runs serially on the calling thread. A panic in `f`
/// propagates to the caller once the scope joins.
pub fn parallel_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    // Work distribution: a shared atomic cursor hands out the next unclaimed
    // index, so slow items never stall the other workers; each result lands
    // in its input-index slot, which is what makes the output deterministic.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= items.len() {
                    break;
                }
                let output = f(&items[index]);
                *slots[index].lock().expect("result slot poisoned") = Some(output);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed and filled before the scope joined")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::StepSimulator;
    use ftsim_gpu::{CostModel, GpuSpec};
    use ftsim_model::{presets, FineTuneConfig};

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 8] {
            let out = parallel_map_with(threads, &items, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_degenerate_inputs() {
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map_with(8, &[7usize], |&x| x + 1), vec![8]);
    }

    #[test]
    fn simulation_results_identical_across_thread_counts() {
        // The determinism contract behind `repro`: FTSIM_THREADS=1 and =8
        // must produce bit-identical simulation results.
        let sim = StepSimulator::new(
            presets::mixtral_8x7b(),
            FineTuneConfig::qlora_sparse(),
            CostModel::new(GpuSpec::a40()),
        );
        let batches: Vec<usize> = (1..=12).collect();
        let serial = parallel_map_with(1, &batches, |&b| {
            sim.simulate_step(b, 128).total_seconds().to_bits()
        });
        let parallel = parallel_map_with(8, &batches, |&b| {
            sim.simulate_step(b, 128).total_seconds().to_bits()
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn threads_filling_one_cold_trace_cache_match_naive_emission() {
        // Eight workers share one simulator whose layer-trace cache starts
        // empty, and the sweep visits every shape twice, so workers fill
        // the cache and read each other's entries. Every step must still
        // equal the serial naive emission, which never touches the cache.
        let sim = || {
            StepSimulator::new(
                presets::mixtral_8x7b(),
                FineTuneConfig::qlora_sparse(),
                CostModel::new(GpuSpec::a40()),
            )
        };
        let batches: Vec<usize> = (1..=8).chain(1..=8).collect();
        let naive_sim = sim();
        let naive: Vec<u64> = batches
            .iter()
            .map(|&b| {
                naive_sim
                    .simulate_step_naive(b, 79)
                    .total_seconds()
                    .to_bits()
            })
            .collect();
        let shared = sim();
        let parallel = parallel_map_with(8, &batches, |&b| {
            shared.simulate_step(b, 79).total_seconds().to_bits()
        });
        assert_eq!(parallel, naive);
        // Three layer traces per shape (forward, backward, recompute).
        let stats = shared.cache_stats();
        assert_eq!(stats.entries, 3 * 8, "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 3 * 16, "{stats:?}");
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        parallel_map_with(4, &items, |&x| {
            if x == 9 {
                panic!("boom");
            }
            x
        });
    }
}
