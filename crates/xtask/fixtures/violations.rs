//! Deliberately violating input for the lint's own tests
//! (`crates/xtask/src/main.rs::tests::violating_fixture_trips_every_rule`).
//!
//! This file is **not** compiled and **not** walked by `cargo lint`
//! (only `src`/`tests`/`examples`/`benches` roots are); it exists so the
//! test suite can prove each rule still fires on a violating input.
//! None of the comments below may name the required marker tokens — a
//! marker in a comment satisfies its rule, which is the point.

// Trips the facade rule: raw std paths outside crates/sync.
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

// Trips the park rule: a hand-rolled sleep beside the checked handshake.
static PARKED: std::sync::Condvar = std::sync::Condvar::new();

// Trips the allow rule: no justification given.
#[allow(dead_code)]
fn spin(flag: &AtomicUsize) {
    // Trips the ordering rule: sequentially consistent load, unjustified.
    while flag.load(Ordering::SeqCst) == 0 {
        thread::yield_now();
    }
}

fn peek(p: *const u8) -> u8 {
    // Trips the safety rule: no justification comment on the block below.
    unsafe { *p }
}
