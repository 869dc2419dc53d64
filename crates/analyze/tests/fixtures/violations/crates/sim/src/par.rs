// Fixture: the one file the `threads` lint exempts. Never compiled.

fn parallel_map() {
    std::thread::scope(|s| {
        s.spawn(|| ());
    });
}
