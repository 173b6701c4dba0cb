//! Fault-injection suite for the BGP join engine (requires
//! `--features fault-injection`).
//!
//! Arms the `lftj::join` worker-entry site and the governor's
//! `govern::tick` starvation hook, and proves that an injected fault
//! surfaces as a typed error or a sound partial answer — never an
//! unwinding panic, and never a corrupted retry.
//!
//! The fault plan is process-global, so every test serializes on one
//! mutex.
#![cfg(feature = "fault-injection")]

use kgq_core::govern::{fault, Budget, EvalError, Governed, Governor};
use kgq_rdf::bgp::Bgp;
use kgq_rdf::{lftj, Solution, TripleStore};
use std::sync::{Mutex, MutexGuard, Once};

/// `lftj::solve_planned_governed` over the greedy plan with `chunks`
/// partitions, under `gov`.
fn solve_under(
    st: &TripleStore,
    bgp: &Bgp,
    chunks: usize,
    gov: &Governor,
) -> Result<Governed<Solution>, EvalError> {
    lftj::solve_planned_governed(st, bgp, &lftj::plan(st, bgp), chunks, gov)
}

/// [`solve_under`] with an unlimited governor, which always completes.
fn solve_all(st: &TripleStore, bgp: &Bgp, chunks: usize) -> Solution {
    let res = solve_under(st, bgp, chunks, &Governor::unlimited()).unwrap();
    assert!(res.completion.is_complete());
    res.value
}

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests on the global fault plan and silences the default
/// panic hook for injected panics (they are caught and converted to
/// typed errors; their backtraces are just noise).
fn serial() -> MutexGuard<'static, ()> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    guard
}

/// A cyclic store and the triangle query over it. `n` is the node
/// count: offsets 1 + 3 + (n-4) ≡ 0 (mod n), so every node closes
/// triangles, and larger `n` keeps the governed join ticking across
/// many step batches (the ticker charges in batches of 1024).
fn setup(n: u32) -> (TripleStore, Bgp) {
    let mut st = TripleStore::new();
    for i in 0..n {
        st.insert_strs(&format!("n{i}"), "e", &format!("n{}", (i + 1) % n));
        st.insert_strs(&format!("n{i}"), "e", &format!("n{}", (i + 3) % n));
        st.insert_strs(&format!("n{i}"), "e", &format!("n{}", (i + n - 4) % n));
    }
    let mut q = Bgp::new();
    q.add(&mut st, "?a", "e", "?b");
    q.add(&mut st, "?b", "e", "?c");
    q.add(&mut st, "?c", "e", "?a");
    (st, q)
}

#[test]
fn injected_panic_surfaces_as_typed_error_and_retry_is_clean() {
    let _guard = serial();
    let (st, q) = setup(12);
    let expected = solve_all(&st, &q, kgq_core::parallel::effective_threads());

    fault::arm("lftj::join", fault::Action::Panic, 0);
    let gov = Governor::unlimited();
    let err = solve_under(&st, &q, kgq_core::parallel::effective_threads(), &gov)
        .expect_err("armed panic must surface");
    match err {
        EvalError::Panic(msg) => assert!(
            msg.contains("injected fault"),
            "unexpected panic message: {msg}"
        ),
        other => panic!("expected EvalError::Panic, got {other:?}"),
    }

    // The fault fired once; a fresh governed run is byte-identical to
    // the unfaulted answer — nothing was cached or corrupted.
    fault::clear();
    let retry = solve_under(
        &st,
        &q,
        kgq_core::parallel::effective_threads(),
        &Governor::unlimited(),
    )
    .expect("clean retry");
    assert!(retry.completion.is_complete());
    assert_eq!(retry.value, expected);
}

#[test]
fn starvation_yields_exact_prefix() {
    let _guard = serial();
    let (st, q) = setup(600);
    let full = solve_all(&st, &q, kgq_core::parallel::effective_threads());
    assert!(!full.rows.is_empty(), "triangle query must have answers");

    // Starve the governor from its third step charge onwards: the join
    // is interrupted mid-flight and must hand back an exact prefix.
    fault::arm_persistent("govern::tick", fault::Action::Starve, 2);
    let gov = Governor::new(&Budget::unlimited());
    let got = solve_under(&st, &q, kgq_core::parallel::effective_threads(), &gov)
        .expect("starvation is not an error");
    assert!(
        !got.completion.is_complete(),
        "persistent starvation must interrupt"
    );
    assert!(got.value.rows.len() < full.rows.len());
    assert_eq!(
        &got.value.rows[..],
        &full.rows[..got.value.rows.len()],
        "partial rows must be a prefix of the full answer"
    );
    fault::clear();
}
