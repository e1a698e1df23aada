//! A small vector of `Copy` values kept inside its owner: the
//! per-participant state of the machines and of the model checker's
//! global state.
//!
//! Up to `N` values live inline, so copying a state that holds a few
//! [`Slots`] copies bytes and allocates nothing — the model checker
//! copies one state per successor. Past `N` the values spill to a `Vec`,
//! so a group of any size still works and pays one allocation per field,
//! as a `Vec` field would.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Up to `N` values of `T` inline, a `Vec` past that.
///
/// It reads and writes as a `[T]` (through `Deref`), and compares, orders,
/// hashes and prints as that slice, which is what a `Vec<T>` holding the
/// same values does: where the values live is never visible. `N` is at
/// most 255.
#[derive(Clone)]
pub struct Slots<T: Copy + Default, const N: usize = 8>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// The values are `items[..len]`; the rest is filler.
    Inline {
        len: u8,
        items: [T; N],
    },
    Spilled(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Slots<T, N> {
    /// The inline length must fit its `u8`.
    const FITS: () = assert!(
        N <= u8::MAX as usize,
        "Slots holds at most 255 values inline"
    );

    /// No values.
    pub fn new() -> Self {
        let () = Self::FITS;
        Slots(Repr::Inline {
            len: 0,
            items: [T::default(); N],
        })
    }

    /// `n` copies of `elem`, as `vec![elem; n]`.
    pub fn from_elem(elem: T, n: usize) -> Self {
        let () = Self::FITS;
        match u8::try_from(n) {
            Ok(len) if n <= N => Slots(Repr::Inline {
                len,
                items: [elem; N],
            }),
            _ => Slots(Repr::Spilled(vec![elem; n])),
        }
    }

    /// Whether the values have spilled to the heap.
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }

    /// Append `value`, as `Vec::push`.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if usize::from(*len) < N => {
                items[usize::from(*len)] = value;
                *len += 1;
            }
            Repr::Inline { .. } => self.spill().push(value),
            Repr::Spilled(values) => values.push(value),
        }
    }

    /// Insert `value` at `index`, shifting the rest up, as `Vec::insert`.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if usize::from(*len) < N => {
                let n = usize::from(*len);
                assert!(index <= n, "insertion index {index} past length {n}");
                items.copy_within(index..n, index + 1);
                items[index] = value;
                *len += 1;
            }
            Repr::Inline { .. } => self.spill().insert(index, value),
            Repr::Spilled(values) => values.insert(index, value),
        }
    }

    /// Move full inline values to the heap. Out of line, so the inline
    /// paths of `push` and `insert` stay small enough to inline.
    #[cold]
    #[inline(never)]
    fn spill(&mut self) -> &mut Vec<T> {
        if let Repr::Inline { items, .. } = &self.0 {
            let mut values = Vec::with_capacity(2 * N + 1);
            values.extend_from_slice(items);
            self.0 = Repr::Spilled(values);
        }
        match &mut self.0 {
            Repr::Spilled(values) => values,
            Repr::Inline { .. } => unreachable!("spilled just above"),
        }
    }

    /// Remove and return the value at `index`, shifting the rest down, as
    /// `Vec::remove`. A spilled value stays spilled.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let n = usize::from(*len);
                assert!(index < n, "removal index {index} past length {n}");
                let value = items[index];
                items.copy_within(index + 1..n, index);
                *len -= 1;
                value
            }
            Repr::Spilled(values) => values.remove(index),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for Slots<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for Slots<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            // `min` tells the compiler the length is in bounds.
            Repr::Inline { len, items } => &items[..usize::from(*len).min(N)],
            Repr::Spilled(values) => values,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for Slots<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..usize::from(*len).min(N)],
            Repr::Spilled(values) => values,
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for Slots<T, N> {
    /// Fills a local array and length, so the loop keeps both in
    /// registers; a value past `N` spills the lot.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let () = Self::FITS;
        let mut items = [T::default(); N];
        let mut len = 0;
        let mut iter = iter.into_iter();
        while let Some(value) = iter.next() {
            if len == N {
                let mut slots = Slots(Repr::Inline {
                    len: N as u8,
                    items,
                });
                let values = slots.spill();
                values.push(value);
                values.extend(iter);
                return slots;
            }
            items[len] = value;
            len += 1;
        }
        // `len <= N <= 255` (`FITS`).
        Slots(Repr::Inline {
            len: len as u8,
            items,
        })
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a Slots<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a mut Slots<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for Slots<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for Slots<T, N> {}

impl<T: Copy + Default + PartialOrd, const N: usize> PartialOrd for Slots<T, N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        (**self).partial_cmp(&**other)
    }
}

impl<T: Copy + Default + Ord, const N: usize> Ord for Slots<T, N> {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl<T: Copy + Default + Hash, const N: usize> Hash for Slots<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for Slots<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

    use super::*;

    type Four = Slots<u32, 4>;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<DefaultHasher>::default().hash_one(value)
    }

    /// The same edits on a `Slots` and a `Vec` leave the same values, on
    /// either side of the inline capacity.
    #[test]
    fn edits_match_a_vec_across_the_spill() {
        let (mut s, mut v) = (Four::new(), Vec::new());
        for x in 0..6 {
            s.push(x);
            v.push(x);
            assert_eq!(*s, *v);
            assert_eq!(s.is_spilled(), v.len() > 4);
        }
        s.insert(0, 10);
        v.insert(0, 10);
        s.insert(3, 11);
        v.insert(3, 11);
        assert_eq!(*s, *v);
        while !v.is_empty() {
            let at = v.len() / 2;
            assert_eq!(s.remove(at), v.remove(at));
            assert_eq!(*s, *v);
        }
        assert!(s.is_spilled(), "a spilled value stays spilled");
        // Inline: insert at the front, the middle and the end, up to full.
        let mut s = Four::new();
        for (at, x) in [(0, 1), (0, 0), (2, 3), (2, 2)] {
            s.insert(at, x);
        }
        assert_eq!((&*s, s.is_spilled()), (&[0, 1, 2, 3][..], false));
        s.insert(4, 4);
        assert_eq!((&*s, s.is_spilled()), (&[0, 1, 2, 3, 4][..], true));
        assert_eq!(s.remove(0), 0);
        assert_eq!(*s, [1, 2, 3, 4]);
    }

    #[test]
    fn from_elem_is_vec_macro() {
        for n in [0, 1, 4, 5, 64] {
            let s = Four::from_elem(7, n);
            assert_eq!(*s, vec![7; n], "n = {n}");
            assert_eq!(s.is_spilled(), n > 4);
        }
        let mut s = Four::from_elem(0, 4);
        s[3] = 9;
        s.iter_mut().for_each(|x| *x += 1);
        assert_eq!(*s, [1, 1, 1, 10]);
    }

    /// Equality, order, hash and `Debug` are the `Vec`'s on the same
    /// values, across lengths on both sides of the capacity.
    #[test]
    fn eq_ord_hash_and_debug_are_the_vecs() {
        let values: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![1, 2],
            vec![1, 2, 3, 4],
            vec![1, 2, 3, 4, 0],
            vec![1, 2, 3, 5],
            vec![2],
            vec![9; 6],
        ];
        for a in &values {
            let sa: Four = a.iter().copied().collect();
            assert_eq!(hash_of(&sa), hash_of(a));
            assert_eq!(format!("{sa:?}"), format!("{a:?}"));
            for b in &values {
                let sb: Four = b.iter().copied().collect();
                assert_eq!(sa == sb, a == b, "{a:?} == {b:?}");
                assert_eq!(sa.cmp(&sb), a.cmp(b), "{a:?} cmp {b:?}");
                assert_eq!(sa.partial_cmp(&sb), a.partial_cmp(b));
            }
        }
    }

    /// A spilled value whose length fell back under the capacity equals,
    /// and hashes as, the inline value with the same contents.
    #[test]
    fn inline_and_spilled_with_equal_contents_are_equal() {
        let inline: Four = [1, 2, 3].into_iter().collect();
        let mut spilled: Four = [1, 2, 3, 4, 5].into_iter().collect();
        spilled.remove(4);
        spilled.remove(3);
        assert!(spilled.is_spilled() && !inline.is_spilled());
        assert_eq!(spilled, inline);
        assert_eq!(spilled.cmp(&inline), Ordering::Equal);
        assert_eq!(hash_of(&spilled), hash_of(&inline));
        // The filler left past an inline value's length is not part of it.
        let mut shrunk: Four = [1, 2, 3, 9].into_iter().collect();
        shrunk.remove(3);
        assert_eq!(
            (shrunk.clone(), hash_of(&shrunk)),
            (inline, hash_of(&[1u32, 2, 3][..]))
        );
    }
}
