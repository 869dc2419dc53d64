// Fixture emitter: in sync with its lock — no schema findings expected
// from this file.

fn to_json() -> String {
    json::document(32, |o| {
        o.f64("t", 1.5);
    })
}
