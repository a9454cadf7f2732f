//! Greedy delta-debugging for the property suites' failing inputs.
//!
//! Standard library only: `controller_index` (a `sesemi_platform` test
//! target) shares it with the scenario suites.

/// Repeatedly drops any element whose removal keeps `fails` true, until the
/// input is 1-minimal: removing any single remaining element makes it pass.
pub fn shrink_to_minimal<T: Clone>(items: &[T], fails: &dyn Fn(&[T]) -> bool) -> Vec<T> {
    let mut current = items.to_vec();
    'shrink: loop {
        for index in 0..current.len() {
            let mut candidate = current.clone();
            candidate.remove(index);
            if fails(&candidate) {
                current = candidate;
                continue 'shrink;
            }
        }
        return current;
    }
}
