//@ path: crates/sim/src/coordinator.rs
// Ascending object order first: concurrent transactions then acquire in
// the same global order, so no wait cycle can form. Test modules are
// exempt — single-threaded unit tests can't deadlock themselves.

fn lock_all(&mut self, op: OpId, plan: &mut Vec<(ObjectId, LockMode)>) -> bool {
    plan.sort_by_key(|&(obj, _)| obj.0);
    for &(obj, mode) in plan.iter() {
        if !self.locks.acquire(op, obj, mode) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    #[test]
    fn unordered_acquisition_is_fine_in_tests() {
        let mut lm = LockManager::default();
        assert!(lm.acquire(OpId(1), ObjectId(1), LockMode::Write));
        assert!(lm.acquire(OpId(2), ObjectId(0), LockMode::Write));
    }
}
