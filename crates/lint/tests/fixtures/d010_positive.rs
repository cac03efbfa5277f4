//@ path: crates/sim/src/coordinator.rs
// Multi-object acquisition straight off the caller's plan: two
// transactions walking the same objects in different orders can deadlock
// under 2PL. No ordering pass appears anywhere above the acquire.

fn lock_all(&mut self, op: OpId, plan: &[(ObjectId, LockMode)]) -> bool {
    for &(obj, mode) in plan {
        if !self.locks.acquire(op, obj, mode) { //~ D010
            return false;
        }
    }
    true
}
