//@ path: crates/sim/src/fixture.rs
// A Mutex mentioned in prose never fires; the traced wrappers, the atomic
// escape hatch, and test-module usage are all clean; and a genuinely raw
// primitive may survive behind a reasoned suppression.
use arbitree_race::{scope, traced_channel, TracedMutex};
use std::sync::atomic::{AtomicUsize, Ordering};

pub fn traced_concurrency() -> usize {
    let m = TracedMutex::new(0u32);
    let (tx, rx) = traced_channel::<u32>();
    let n = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let r = scope(|s| {
        let h = s.spawn(move |_| tx.send(1));
        h.join()
    });
    let banner = "thread::spawn and Mutex::new in a string";
    drop((m, rx, banner, r));
    n.load(Ordering::Relaxed) + threads
}

pub fn justified() -> u32 {
    // arbitree-lint: allow(D011) — bootstrap lock that must exist before the traced seam does
    let bootstrap = std::sync::Mutex::new(7u32);
    bootstrap.into_inner().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn raw_primitives_in_tests_are_fine() {
        let _ = Mutex::new(0u32);
        let _ = std::thread::spawn(|| 1).join();
    }
}
