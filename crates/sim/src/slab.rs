//! A table of values under dense ids handed out in order.
//!
//! The platform controller numbers its sandboxes from zero, one id per
//! sandbox ever created, and the cluster simulator looks a sandbox up
//! several times per request.  [`IdSlab`] keeps the value of id `n` at index
//! `n` of a vector, so a lookup is a bounds check and iteration runs in
//! ascending id order, with no hashing anywhere.
//!
//! A removed id leaves an empty slot behind: ids are never handed out
//! twice, so the slot is never filled again.  The slab therefore holds one
//! slot per id up to the highest ever inserted, whatever the live count.
//! That bound is the number of sandboxes a run creates (its cold starts).

/// Values indexed by dense ids, with a count of the live ones.
#[derive(Clone, Debug)]
pub struct IdSlab<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Default for IdSlab<T> {
    fn default() -> Self {
        IdSlab {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<T> IdSlab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        IdSlab::default()
    }

    /// Stores `value` under `id`, growing the slab to reach it, and returns
    /// the value `id` held before.
    pub fn insert(&mut self, id: usize, value: T) -> Option<T> {
        if self.slots.len() <= id {
            self.slots.resize_with(id + 1, || None);
        }
        let previous = self.slots[id].replace(value);
        if previous.is_none() {
            self.live += 1;
        }
        previous
    }

    /// The value under `id`, inserting the one `make` builds if there is
    /// none.
    pub fn get_or_insert_with(&mut self, id: usize, make: impl FnOnce() -> T) -> &mut T {
        if self.get(id).is_none() {
            self.insert(id, make());
        }
        self.slots[id].as_mut().expect("filled above")
    }

    /// The value under `id`, if any.
    #[must_use]
    pub fn get(&self, id: usize) -> Option<&T> {
        self.slots.get(id)?.as_ref()
    }

    /// The value under `id`, if any, for update.
    pub fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        self.slots.get_mut(id)?.as_mut()
    }

    /// Removes and returns the value under `id`, if any.
    pub fn remove(&mut self, id: usize) -> Option<T> {
        let removed = self.slots.get_mut(id)?.take();
        if removed.is_some() {
            self.live -= 1;
        }
        removed
    }

    /// Number of live values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the slab holds no live value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The live values with their ids, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
    }

    /// The live values, in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_index_values_and_the_live_count_follows_inserts_and_removes() {
        let mut slab = IdSlab::new();
        assert!(slab.is_empty());
        assert_eq!(slab.insert(2, "c"), None);
        assert_eq!(slab.insert(0, "a"), None);
        assert_eq!(slab.insert(0, "a2"), Some("a"), "replacing keeps the count");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(0), Some(&"a2"));
        assert_eq!(slab.get(1), None, "a gap below the highest id");
        assert_eq!(slab.get(9), None, "past the end");
        *slab.get_or_insert_with(1, || "b") = "b2";
        assert_eq!(*slab.get_or_insert_with(1, || "unused"), "b2");
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.remove(0), Some("a2"));
        assert_eq!(slab.remove(0), None);
        assert_eq!(slab.remove(9), None);
        assert_eq!(slab.len(), 2);
        if let Some(value) = slab.get_mut(2) {
            *value = "c2";
        }
        assert_eq!(slab.iter().collect::<Vec<_>>(), [(1, &"b2"), (2, &"c2")]);
        assert_eq!(slab.values().copied().collect::<Vec<_>>(), ["b2", "c2"]);
    }
}
