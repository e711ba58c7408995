//! A bounded memo: a map capped by entry count that evicts its oldest
//! insertion first. The inline-DFG key memo (`proto.rs`) and each
//! shard's mapping memo (`server.rs`) are both one of these.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Key → value, holding at most `cap` entries; inserting past the cap
/// evicts the oldest insertion. A lookup does not refresh an entry's age.
pub(crate) struct Memo<K, V> {
    cap: usize,
    map: HashMap<K, V>,
    order: VecDeque<K>,
}

impl<K: Copy + Eq + Hash, V: Clone> Memo<K, V> {
    pub(crate) fn new(cap: usize) -> Memo<K, V> {
        Memo {
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// A copy of the value memoized for `key`.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.map.get(key).cloned()
    }

    /// Memoizes `value` under `key`. A resident key keeps its age.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key, value).is_some() {
            return;
        }
        self.order.push_back(key);
        while self.map.len() > self.cap {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
        }
    }

    /// Resident entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_memo_never_grows_past_its_cap(cap in 1usize..32, extra in 0usize..64) {
            let mut memo = Memo::new(cap);
            for i in 0..cap + extra {
                memo.insert((i as u64, !(i as u64)), i);
                // Re-inserting a resident key keeps its age.
                memo.insert((i as u64, !(i as u64)), i);
                prop_assert!(memo.len() <= cap);
                prop_assert_eq!(memo.map.len(), memo.order.len());
            }
            // Oldest first: the newest `cap` insertions survive.
            let n = cap + extra;
            for i in 0..n {
                let resident = memo.get(&(i as u64, !(i as u64)));
                prop_assert_eq!(resident.is_some(), i + cap >= n, "entry {}", i);
                if let Some(v) = resident {
                    prop_assert_eq!(v, i);
                }
            }
        }
    }
}
