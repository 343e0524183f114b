//! A bitset over `u32` ids below a fixed bound (documents or terms):
//! one word probe per membership test, ascending iteration, no sorting,
//! and set algebra a word at a time.

/// A set of ids below a fixed bound, one bit per id.
#[derive(Debug, Clone)]
pub struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// An empty set over ids `0..len`.
    pub fn new(len: usize) -> Self {
        IdSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Adds `id`, which must be below the set's bound.
    #[inline]
    pub fn insert(&mut self, id: u32) {
        self.words[id as usize / 64] |= 1 << (id % 64);
    }

    /// Whether `id` is in the set (ids past the bound are not).
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.words
            .get(id as usize / 64)
            .is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// Removes every id.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The ids in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        members(self.words.iter().copied())
    }

    /// The set's words, id `64 i + b` at bit `b` of word `i`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The ids whose bits `words` set, ascending: the members of a set
/// computed a word at a time.
pub(crate) fn members(words: impl Iterator<Item = u64>) -> impl Iterator<Item = u32> {
    words
        .enumerate()
        .flat_map(|(i, w)| bits(w).map(move |b| i as u32 * 64 + b))
}

/// The positions of `w`'s set bits, ascending.
pub(crate) fn bits(mut w: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let bit = (w != 0).then(|| w.trailing_zeros())?;
        w &= w - 1;
        Some(bit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_members_ascending_and_answers_membership() {
        let mut s = IdSet::new(200);
        for id in [199, 0, 64, 63, 130, 64] {
            s.insert(id);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 63, 64, 130, 199]);
        assert!(s.contains(130) && !s.contains(131));
        assert!(!s.contains(10_000), "outside the universe");
        s.clear();
        assert_eq!(s.iter().count(), 0);
    }
}
