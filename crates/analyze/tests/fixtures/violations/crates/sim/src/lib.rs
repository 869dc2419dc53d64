// Fixture: one representative of every determinism-lint violation class.
// Never compiled — lexed and linted by tests/fixtures.rs. The crate dir is
// named `sim` so the driver applies the `lml-sim` (determinism-critical)
// lint config.

use std::collections::HashMap; // hash-collections
use std::time::Instant;

fn clock_read() -> Instant {
    Instant::now() // wall-clock
}

fn float_compare(x: f64) -> bool {
    x == 0.5 // float-eq
}

static mut COUNTER: u64 = 0; // static-mut

fn panic_site(v: &[u64]) -> u64 {
    v.first().unwrap() + v[0] // unwrap + index, against a zero budget
}

fn slice_type(v: &mut [u64]) -> usize {
    v.len() // `mut [` is a slice type, not an index: the count stays 1
}

fn fan_out() {
    std::thread::scope(|s| {
        s.spawn(|| ()); // threads: only `crates/sim/src/par.rs` may start threads
    });
}
