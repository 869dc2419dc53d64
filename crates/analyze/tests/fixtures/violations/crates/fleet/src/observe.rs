// Fixture emitter: in sync with its lock — no schema findings expected
// from this file. Its one finding is the wall-clock read below: no file in
// the workspace may read a wall clock, the observer module included.

fn to_json() -> String {
    json::document(32, |o| {
        o.f64("t", 1.5);
    })
}

fn stamp() {
    let _ = std::time::Instant::now(); // wall-clock
}
