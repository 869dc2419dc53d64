// Fixture crate root — clean on purpose; the violations live in sim/,
// apart from the wall-clock read in observe.rs.

mod metrics;
mod observe;
