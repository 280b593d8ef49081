//! An implicit 4-ary min-heap whose entries something else points at.
//!
//! The replica server keeps its requests in one heap and their deadlines
//! in another, each entry holding the slot of its counterpart; the engine's
//! wake queue keeps two heaps, service and batch timers, under one shared
//! pod → slot table. All of them need the same thing from a sift: every
//! time an entry lands on a slot, the index that points at it must follow,
//! or a later removal takes out the wrong entry.
//!
//! The sifts are hole-based: the moving entry is held aside while displaced
//! entries shift one level, so a level costs one entry move and one index
//! update instead of a three-way swap, and the fan-out of 4 halves the
//! number of levels.

const ARITY: usize = 4;

/// A heap entry that `O` keeps an index to.
pub(crate) trait Entry<O: ?Sized>: Copy {
    /// What the heap is ordered by; never NaN.
    type Key: PartialOrd;
    fn key(&self) -> Self::Key;
    /// The entry now sits on `slot`.
    fn moved(&self, slot: usize, index: &mut O);
}

/// Adds `entry` and returns the slot it settled on. A full vector grows by
/// half, not by doubling: a deep replica's heaps are most of its memory.
pub(crate) fn push<T: Entry<O>, O: ?Sized>(heap: &mut Vec<T>, index: &mut O, entry: T) -> usize {
    if heap.len() == heap.capacity() {
        heap.reserve_exact((heap.len() / 2).max(4));
    }
    let last = heap.len();
    heap.push(entry);
    sift_up(heap, index, last)
}

/// Moves the entry on slot `i` towards the root until its parent is no
/// larger; returns where it stopped.
fn sift_up<T: Entry<O>, O: ?Sized>(heap: &mut [T], index: &mut O, mut i: usize) -> usize {
    let entry = heap[i];
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if entry.key() >= heap[parent].key() {
            break;
        }
        heap[i] = heap[parent];
        heap[i].moved(i, index);
        i = parent;
    }
    heap[i] = entry;
    entry.moved(i, index);
    i
}

/// Moves the entry on slot `i` away from the root until no child is
/// smaller.
fn sift_down<T: Entry<O>, O: ?Sized>(heap: &mut [T], index: &mut O, mut i: usize) {
    let entry = heap[i];
    loop {
        let first = ARITY * i + 1;
        let Some(children) = heap.get(first..heap.len().min(first + ARITY)) else {
            break;
        };
        let (mut child, mut least) = (i, entry.key());
        for (c, e) in children.iter().enumerate() {
            if e.key() < least {
                (child, least) = (first + c, e.key());
            }
        }
        if child == i {
            break;
        }
        heap[i] = heap[child];
        heap[i].moved(i, index);
        i = child;
    }
    heap[i] = entry;
    entry.moved(i, index);
}

/// Restores the heap after the key of the entry on slot `i` changed.
pub(crate) fn resift<T: Entry<O>, O: ?Sized>(heap: &mut [T], index: &mut O, i: usize) {
    if i > 0 && heap[i].key() < heap[(i - 1) / ARITY].key() {
        sift_up(heap, index, i);
    } else {
        sift_down(heap, index, i);
    }
}

/// Orders arbitrary entries into a heap.
pub(crate) fn heapify<T: Entry<O>, O: ?Sized>(heap: &mut [T], index: &mut O) {
    for i in (0..heap.len().saturating_sub(1).div_ceil(ARITY)).rev() {
        sift_down(heap, index, i);
    }
}

/// Removes and returns the entry on slot `i`; the last entry takes the
/// slot and moves whichever way its key says. The caller drops whatever
/// pointed at the removed entry.
pub(crate) fn remove<T: Entry<O>, O: ?Sized>(heap: &mut Vec<T>, index: &mut O, i: usize) -> T {
    let last = heap.pop().expect("slot `i` is in the heap");
    if i == heap.len() {
        return last;
    }
    let out = std::mem::replace(&mut heap[i], last);
    resift(heap, index, i);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(key, id)`; the index is `id → slot`.
    impl Entry<Vec<usize>> for (u32, usize) {
        type Key = u32;
        fn key(&self) -> u32 {
            self.0
        }
        fn moved(&self, slot: usize, index: &mut Vec<usize>) {
            index[self.1] = slot;
        }
    }

    fn check(heap: &[(u32, usize)], index: &[usize]) {
        for (slot, entry) in heap.iter().enumerate() {
            assert_eq!(index[entry.1], slot, "the index follows every move");
            if slot > 0 {
                assert!(heap[(slot - 1) / ARITY].0 <= entry.0, "parent ≤ child");
            }
        }
    }

    #[test]
    fn pushes_removals_and_rekeys_keep_order_and_index() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move |n: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) % n
        };
        let mut heap: Vec<(u32, usize)> = Vec::new();
        let mut index: Vec<usize> = Vec::new();
        for id in 0..400 {
            index.push(usize::MAX);
            let slot = push(&mut heap, &mut index, (draw(50) as u32, id));
            assert_eq!(heap[slot].1, id);
            check(&heap, &index);
        }
        for _ in 0..150 {
            let slot = draw(heap.len() as u64) as usize;
            heap[slot].0 = draw(50) as u32;
            resift(&mut heap, &mut index, slot);
            check(&heap, &index);
            let slot = draw(heap.len() as u64) as usize;
            let id = heap[slot].1;
            assert_eq!(remove(&mut heap, &mut index, slot).1, id);
            check(&heap, &index);
        }
        for entry in &mut heap {
            entry.0 = draw(1_000) as u32;
        }
        heapify(&mut heap, &mut index);
        check(&heap, &index);
        let mut popped = Vec::new();
        while !heap.is_empty() {
            popped.push(remove(&mut heap, &mut index, 0).0);
        }
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "pops come out in key order");
    }
}
