//! Owned-or-shared storage for the core's hot state.
//!
//! The functional memories ([`PagedMem`](crate::PagedMem) pages) and the
//! cache tag arrays ([`Cache`](crate::cache::Cache) chunks) are written on
//! almost every simulated instruction, but shared with snapshots only when
//! [`Core::run_collecting_snapshots`](crate::Core::run_collecting_snapshots)
//! captures one. A [`Slot`] keeps the two cases apart:
//!
//! * [`Slot::Own`]: held by the running core alone and written in place,
//!   with no reference count to check;
//! * [`Slot::Shared`]: shared with snapshots (and with the cores forked
//!   from them), copied into an owned slot on its first write.
//!
//! [`Slot::share`] turns an owned slot into a shared one, which is how a
//! capture takes its copy. A fault-free run that takes no snapshot never
//! touches a reference count, and a forked run pays one copy per slot it
//! writes, on the first write.

use std::sync::Arc;

/// One unit of copy-on-write state: owned by the running core or shared
/// with snapshots. `Clone` deep-copies an owned slot (the copy must not
/// see later writes) and shares a shared one. `Debug` prints the value.
pub(crate) enum Slot<T> {
    /// Held by one core, written in place.
    Own(Box<T>),
    /// Shared with snapshots; copied on its first write.
    Shared(Arc<T>),
}

impl<T: Clone> Slot<T> {
    /// An owned slot holding `value`.
    pub(crate) fn new(value: T) -> Self {
        Slot::Own(Box::new(value))
    }

    /// The value, for reading.
    #[inline(always)]
    pub(crate) fn get(&self) -> &T {
        match self {
            Slot::Own(b) => b,
            Slot::Shared(a) => a,
        }
    }

    /// The value, for writing: an owned slot in place, a shared one after
    /// copying it into an owned slot.
    #[inline(always)]
    pub(crate) fn make_mut(&mut self) -> &mut T {
        if let Slot::Shared(a) = self {
            *self = Slot::Own(Box::new(T::clone(a)));
        }
        match self {
            Slot::Own(b) => b,
            Slot::Shared(_) => unreachable!("unshared above"),
        }
    }

    /// A shared handle on the value, turning an owned slot into a shared
    /// one first (one copy into a reference-counted allocation).
    pub(crate) fn share(&mut self) -> Slot<T> {
        let arc = match self {
            Slot::Shared(a) => return Slot::Shared(a.clone()),
            Slot::Own(b) => Arc::new(T::clone(b)),
        };
        *self = Slot::Shared(arc.clone());
        Slot::Shared(arc)
    }

    /// Whether both slots are one shared allocation (so hold equal values
    /// without comparing them).
    #[inline]
    pub(crate) fn ptr_eq(&self, other: &Slot<T>) -> bool {
        matches!((self, other), (Slot::Shared(a), Slot::Shared(b)) if Arc::ptr_eq(a, b))
    }
}

impl<T: Clone> Clone for Slot<T> {
    fn clone(&self) -> Self {
        match self {
            Slot::Own(b) => Slot::Own(b.clone()),
            Slot::Shared(a) => Slot::Shared(a.clone()),
        }
    }
}

impl<T: Clone + std::fmt::Debug> std::fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_after_a_share_leave_the_shared_copy_alone() {
        let mut a = Slot::new([1u64; 4]);
        let b = a.share();
        assert!(a.ptr_eq(&b));
        a.make_mut()[0] = 9;
        assert_eq!(b.get(), &[1; 4]);
        assert_eq!(a.get(), &[9, 1, 1, 1]);
        assert!(!a.ptr_eq(&b));
        assert!(matches!(a, Slot::Own(_)));
    }

    #[test]
    fn clone_deep_copies_owned_and_shares_shared_slots() {
        let mut a = Slot::new(vec![1, 2]);
        let mut c = a.clone();
        c.make_mut().push(3);
        assert_eq!(a.get(), &[1, 2]);
        assert!(!a.ptr_eq(&c), "owned slots never compare by pointer");
        let s = a.share();
        assert!(s.clone().ptr_eq(&a));
        assert_eq!(format!("{s:?}"), "[1, 2]");
    }
}
