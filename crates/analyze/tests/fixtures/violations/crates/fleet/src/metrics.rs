// Fixture emitter: writes `schema` and `jobs`, but the committed lock also
// lists `removed_field` — the schema-lock checker must flag the removal as
// gating.

fn to_json() -> String {
    json::document(64, |o| {
        o.str("schema", "fixture/v1").u64("jobs", 3);
    })
}
