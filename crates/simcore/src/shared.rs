//! State shared between the actors of one simulation.
//!
//! A simulation is one thread: the engine dispatches one event at a time
//! and no actor, handle or message ever crosses to another thread
//! (parallel sweeps build one `Sim` per thread). So shared state — the
//! network, the machine, every `*Stats` block, durable images — needs
//! shared *ownership*, not synchronisation: [`Shared`] is an
//! `Rc<RefCell<T>>`. It is `!Send`, so the compiler still refuses to let
//! a handle escape its thread.
//!
//! The accessor is named `lock()` because code outside the crates (the
//! end-to-end benchmark) calls it by that name. The borrow it returns is
//! exclusive, like a mutex guard; taking a second one while the first is
//! held panics.

use std::cell::{RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

/// A handle to state shared within one simulation. Clones share the value.
pub struct Shared<T: ?Sized>(Rc<RefCell<T>>);

impl<T> Shared<T> {
    pub fn new(value: T) -> Self {
        Shared(Rc::new(RefCell::new(value)))
    }
}

impl<T: ?Sized> Shared<T> {
    /// Exclusive access until the guard drops. Panics if the value is
    /// already borrowed — a re-entrant `lock()` on one thread, which a
    /// mutex would have turned into a deadlock.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> RefMut<'_, T> {
        match self.0.try_borrow_mut() {
            Ok(guard) => guard,
            Err(_) => panic!("Shared::lock: already locked (re-entrant lock on one thread)"),
        }
    }
}

impl<T: ?Sized> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Rc::clone(&self.0))
    }
}

impl<T: Default> Default for Shared<T> {
    fn default() -> Self {
        Shared::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_borrow() {
            Ok(v) => f.debug_tuple("Shared").field(&&*v).finish(),
            Err(_) => f.write_str("Shared(<locked>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_value() {
        let a = Shared::new(1u32);
        let b = a.clone();
        *b.lock() += 1;
        assert_eq!(*a.lock(), 2);
    }

    #[test]
    #[should_panic(expected = "already locked")]
    fn second_lock_while_the_first_is_held_panics() {
        let a = Shared::new(Vec::<u8>::new());
        let _held = a.lock();
        a.clone().lock().push(1);
    }
}
