//! Threading control for the multi-source evaluation scans.
//!
//! The parallel entry points ([`crate::eval::Evaluator::pairs_governed`],
//! [`crate::count::count_paths_naive`],
//! [`crate::approx::approx_count_amplified`]) all follow the same
//! discipline: split work into *units* that are computed independently
//! and combined in unit order (or with an order-insensitive sum).
//! Answers are therefore identical for every thread count, including
//! one.
//!
//! Since the bit-parallel kernel landed ([`crate::bitkernel`]), the unit
//! of parallelism for the reachability scans is a **batch of 64 source
//! nodes**, not a single source: each worker runs one
//! [`crate::bitkernel::ReachKernel`] sweep that advances all 64 BFS
//! frontiers of its batch at once, and batch results are concatenated in
//! batch order. Counting and sampling entry points still split by single
//! source/round.
//!
//! Thread count resolution, highest priority first:
//!
//! 1. the `KGQ_THREADS` environment variable (applied once, on first use);
//! 2. whatever the rayon global pool was configured with
//!    (`RAYON_NUM_THREADS`, or an explicit `ThreadPoolBuilder`);
//! 3. the machine's available parallelism.
//!
//! Setting `KGQ_THREADS=1` forces the sequential paths everywhere.
//!
//! ## Governance across workers
//!
//! Governed scans ([`crate::eval::Evaluator::pairs_governed`] and
//! friends) share one [`crate::govern::Governor`] by reference across
//! all worker threads: each worker charges its own batched
//! [`crate::govern::Ticker`] into the shared atomic counters, observes
//! the *sticky* trip (including cooperative cancellation) at its next
//! batch boundary, and returns its per-source partial state cleanly
//! instead of being torn down. Worker closures also run inside
//! [`crate::govern::isolate`], so a panicking worker is converted into a
//! typed [`crate::govern::EvalError::Panic`] rather than unwinding
//! through the pool — the bundled rayon shim joins every scoped thread
//! before returning, so no thread ever outlives (leaks from) a scan.

use std::sync::Once;

static INIT: Once = Once::new();

/// Applies `KGQ_THREADS` (if set and valid) to the global rayon pool.
/// Idempotent; called automatically by [`effective_threads`]. A value
/// that is set but not a positive integer (`0`, empty, non-numeric) is
/// reported once on stderr — naming the bad value and the fallback —
/// instead of being silently ignored.
pub fn init_threads() {
    INIT.call_once(|| {
        if let Ok(v) = std::env::var("KGQ_THREADS") {
            match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => {
                    let _ = rayon::ThreadPoolBuilder::new()
                        .num_threads(n)
                        .build_global();
                }
                Ok(_) => eprintln!(
                    "warning: KGQ_THREADS=0 is not a valid thread count; \
                     using the pool default ({} threads)",
                    rayon::current_num_threads()
                ),
                Err(_) => eprintln!(
                    "warning: KGQ_THREADS=`{v}` is not a positive integer; \
                     using the pool default ({} threads)",
                    rayon::current_num_threads()
                ),
            }
        }
    });
}

/// Number of threads the parallel scans will use (after honoring
/// `KGQ_THREADS`). A return value of 1 routes every scan through its
/// sequential reference implementation.
pub fn effective_threads() -> usize {
    init_threads();
    rayon::current_num_threads()
}

/// Reconfigures the global pool to `n` threads, overriding `KGQ_THREADS`
/// and any earlier configuration (the bundled rayon's `build_global` is
/// repeatable: the last call wins). Intended for benchmarks and tests
/// that measure or verify behavior across thread counts.
pub fn set_threads(n: usize) {
    init_threads();
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(n.max(1))
        .build_global();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_is_positive() {
        assert!(effective_threads() >= 1);
    }
}
