//! A generational arena with O(1) insert/remove/lookup.

/// Handle into a [`Slab`]. The generation makes handles ABA-safe: once an
/// entry is removed, every old key to its slot stops resolving, even after
/// the slot is reused.
///
/// Keys pack losslessly into a `u64` via [`SlabKey::to_raw`], so callers
/// that already expose `u64` identifiers (like the DES `EventId`) can keep
/// their wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlabKey {
    index: u32,
    gen: u32,
}

impl SlabKey {
    /// Packs the key as `(gen << 32) | index`.
    #[inline]
    pub fn to_raw(self) -> u64 {
        ((self.gen as u64) << 32) | self.index as u64
    }

    /// Unpacks a key produced by [`SlabKey::to_raw`]. Arbitrary values are
    /// safe: generations start at 1, so a forged gen-0 key never resolves.
    #[inline]
    pub fn from_raw(raw: u64) -> SlabKey {
        SlabKey {
            index: raw as u32,
            gen: (raw >> 32) as u32,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry<T> {
    /// Generation that a key must carry to resolve this slot.
    gen: u32,
    val: Option<T>,
}

/// A deterministic generational arena.
///
/// Slots are reused LIFO from an explicit free list, so the mapping from
/// operation sequence to handles is reproducible run-to-run. Removing an
/// entry bumps its slot's generation, invalidating outstanding keys.
///
/// ```rust
/// use gage_collections::Slab;
/// let mut s = Slab::new();
/// let k = s.insert("x");
/// assert_eq!(s.get(k), Some(&"x"));
/// assert_eq!(s.remove(k), Some("x"));
/// assert_eq!(s.get(k), None); // stale key no longer resolves
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the arena holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `val`, returning the key that retrieves it.
    pub fn insert(&mut self, val: T) -> SlabKey {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let entry = &mut self.slots[index as usize];
            entry.val = Some(val);
            return SlabKey {
                index,
                gen: entry.gen,
            };
        }
        let index = self.slots.len() as u32;
        self.slots.push(Entry {
            gen: 1,
            val: Some(val),
        });
        SlabKey { index, gen: 1 }
    }

    /// The key the next [`Slab::insert`] will return, for values that must
    /// hold (or be scheduled under) their own key before they are stored.
    pub fn vacant_key(&self) -> SlabKey {
        match self.free.last() {
            Some(&index) => SlabKey {
                index,
                gen: self.slots[index as usize].gen,
            },
            None => SlabKey {
                index: self.slots.len() as u32,
                gen: 1,
            },
        }
    }

    /// The entry behind `key`, if it is still live.
    #[inline]
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        let entry = self.slots.get(key.index as usize)?;
        if entry.gen != key.gen {
            return None;
        }
        entry.val.as_ref()
    }

    /// Mutable access to the entry behind `key`, if it is still live.
    #[inline]
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        let entry = self.slots.get_mut(key.index as usize)?;
        if entry.gen != key.gen {
            return None;
        }
        entry.val.as_mut()
    }

    /// True if `key` resolves to a live entry.
    #[inline]
    pub fn contains(&self, key: SlabKey) -> bool {
        self.get(key).is_some()
    }

    /// Removes the entry behind `key`, invalidating the key and every copy
    /// of it.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let entry = self.slots.get_mut(key.index as usize)?;
        if entry.gen != key.gen {
            return None;
        }
        let val = entry.val.take()?;
        // Advance the generation now so stale keys die immediately; skip 0
        // on wraparound because gen 0 is the "never valid" sentinel.
        entry.gen = entry.gen.wrapping_add(1);
        if entry.gen == 0 {
            entry.gen = 1;
        }
        self.free.push(key.index);
        self.len -= 1;
        Some(val)
    }

    /// Every live entry, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|e| e.val.as_ref())
    }

    /// Removes every entry and invalidates all outstanding keys, keeping
    /// allocated capacity.
    pub fn clear(&mut self) {
        self.free.clear();
        for (i, entry) in self.slots.iter_mut().enumerate() {
            if entry.val.take().is_some() {
                entry.gen = entry.gen.wrapping_add(1);
                if entry.gen == 0 {
                    entry.gen = 1;
                }
            }
            self.free.push(i as u32);
        }
        // Pop order must stay deterministic: reuse highest index first,
        // matching the LIFO discipline of incremental removes.
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&10));
        assert_eq!(s.get_mut(b).map(|v| std::mem::replace(v, 21)), Some(20));
        assert_eq!(s.get(b), Some(&21));
        assert_eq!(s.remove(a), Some(10));
        assert_eq!(s.remove(a), None);
        assert!(!s.contains(a));
        assert!(s.contains(b));
        assert_eq!(s.len(), 1);
        assert_eq!(s.values().collect::<Vec<_>>(), [&21]);
    }

    #[test]
    fn stale_keys_never_resolve_after_reuse() {
        let mut s = Slab::new();
        let a = s.insert("first");
        s.remove(a);
        let b = s.insert("second"); // reuses the same slot
        assert_eq!(b.index, a.index);
        assert_ne!(b.gen, a.gen);
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&"second"));
    }

    #[test]
    fn raw_roundtrip_and_forged_keys() {
        let mut s = Slab::new();
        let k = s.insert(5u8);
        let raw = k.to_raw();
        assert_eq!(SlabKey::from_raw(raw), k);
        // Generations start at 1, so a small forged value (gen 0) is dead.
        assert_eq!(s.get(SlabKey::from_raw(99)), None);
        assert!(!s.contains(SlabKey::from_raw(0)));
    }

    #[test]
    fn slot_reuse_is_lifo_and_deterministic() {
        let run = || {
            let mut s = Slab::new();
            let keys: Vec<SlabKey> = (0..8).map(|i| s.insert(i)).collect();
            for k in &keys[2..5] {
                s.remove(*k);
            }
            (0..3)
                .map(|i| s.insert(100 + i).to_raw())
                .collect::<Vec<u64>>()
        };
        let first = run();
        assert_eq!(first, run());
        // LIFO: last-freed slot (index 4) comes back first.
        assert_eq!(SlabKey::from_raw(first[0]).index, 4);
    }

    #[test]
    fn vacant_key_predicts_the_next_insert() {
        let mut s = Slab::new();
        let k = s.vacant_key();
        assert_eq!(s.insert(1), k);
        let a = s.insert(2);
        s.remove(a);
        let k = s.vacant_key();
        assert_ne!(k, a, "a reused slot comes back under a new generation");
        assert_eq!(s.insert(3), k);
        s.clear();
        let k = s.vacant_key();
        assert_eq!(s.insert(4), k);
    }

    #[test]
    fn clear_invalidates_everything() {
        let mut s = Slab::new();
        let keys: Vec<SlabKey> = (0..4).map(|i| s.insert(i)).collect();
        s.clear();
        assert!(s.is_empty());
        for k in keys {
            assert_eq!(s.get(k), None);
        }
        let k = s.insert(9);
        assert_eq!(s.get(k), Some(&9));
        assert_eq!(s.len(), 1);
    }
}
