//! The durable-state registry: what survives a simulated power loss.
//!
//! Durable media — NPMU non-volatile arrays, disk platters — are modelled
//! as values held *outside* the simulation in a [`DurableStore`]. A crash
//! experiment drops the whole `Sim` (all volatile actor state vanishes,
//! exactly like DRAM at power-off) and constructs a fresh `Sim` around the
//! *same* store; recovery code then finds whatever had reached durable
//! media, and nothing else.
//!
//! Volatile-but-shared state (a PMP prototype's memory, a controller write
//! cache without battery) must *not* live here; components model those as
//! ordinary actor state, or register them and explicitly clear them on
//! power loss (see [`DurableStore::reset_volatile`]).

use crate::Shared;
use std::any::Any;
use std::collections::BTreeMap;

/// A handle to one durable image (e.g. a disk's block map).
pub type Image<T> = Shared<T>;

struct Entry {
    /// An `Image<T>` of the type the key was registered with.
    value: Box<dyn Any>,
    /// Volatile entries are cleared (replaced by `fresh()`) on power loss.
    volatile: bool,
    fresh: Box<dyn Fn() -> Box<dyn Any>>,
}

/// Keyed registry of state that outlives individual `Sim` instances.
#[derive(Default)]
pub struct DurableStore {
    entries: BTreeMap<String, Entry>,
}

impl DurableStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get the image registered under `key`, creating it with `T::default()`
    /// if absent. Panics if the key exists with a different type — that is
    /// always a wiring bug.
    pub fn get_or_default<T: Default + 'static>(&mut self, key: &str) -> Image<T> {
        self.get_or_insert_with(key, T::default)
    }

    /// Like [`Self::get_or_default`] with an explicit constructor.
    pub fn get_or_insert_with<T: 'static>(
        &mut self,
        key: &str,
        make: impl Fn() -> T + 'static,
    ) -> Image<T> {
        let entry = self.entries.entry(key.to_string()).or_insert_with(|| {
            let fresh = move || Box::new(Image::new(make())) as Box<dyn Any>;
            Entry {
                value: fresh(),
                volatile: false,
                fresh: Box::new(fresh),
            }
        });
        entry
            .value
            .downcast_ref::<Image<T>>()
            .unwrap_or_else(|| panic!("durable key {key:?} registered with a different type"))
            .clone()
    }

    /// Register a *volatile* shared image: it participates in sharing across
    /// `Sim` rebuilds within one power domain, but [`Self::reset_volatile`]
    /// replaces it with a fresh default. Models PMP memory (a process's
    /// DRAM) and non-battery-backed caches.
    pub fn get_or_insert_volatile<T: 'static>(
        &mut self,
        key: &str,
        make: impl Fn() -> T + 'static,
    ) -> Image<T> {
        let img = self.get_or_insert_with(key, make);
        if let Some(e) = self.entries.get_mut(key) {
            e.volatile = true;
        }
        img
    }

    /// Does the key exist?
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Look up an existing image without creating it.
    pub fn get<T: 'static>(&self, key: &str) -> Option<Image<T>> {
        self.entries
            .get(key)?
            .value
            .downcast_ref::<Image<T>>()
            .cloned()
    }

    /// All registered keys (sorted — the map is a BTreeMap).
    pub fn keys(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Simulated power loss: every volatile entry is replaced by a fresh
    /// default. Holders of old handles keep the *old* image — callers must
    /// re-fetch after power loss, which mirrors reality: after reboot you
    /// re-open the device and see its post-crash contents.
    pub fn reset_volatile(&mut self) {
        for e in self.entries.values_mut() {
            if e.volatile {
                e.value = (e.fresh)();
            }
        }
    }

    /// Remove an entry entirely (media replacement / reformat).
    pub fn remove(&mut self, key: &str) -> bool {
        self.entries.remove(key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_value_survives_refetch() {
        let mut store = DurableStore::new();
        {
            let img = store.get_or_default::<Vec<u8>>("disk0");
            img.lock().extend_from_slice(b"abc");
        }
        let img = store.get_or_default::<Vec<u8>>("disk0");
        assert_eq!(&*img.lock(), b"abc");
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let mut store = DurableStore::new();
        let _a = store.get_or_default::<Vec<u8>>("x");
        let _b = store.get_or_default::<u64>("x");
    }

    #[test]
    fn volatile_entries_clear_on_power_loss() {
        let mut store = DurableStore::new();
        let v = store.get_or_insert_volatile("pmp0", Vec::<u8>::new);
        v.lock().push(7);
        let d = store.get_or_default::<Vec<u8>>("npmu0");
        d.lock().push(9);

        store.reset_volatile();

        let v2 = store.get::<Vec<u8>>("pmp0").unwrap();
        assert!(v2.lock().is_empty(), "volatile image must be cleared");
        let d2 = store.get::<Vec<u8>>("npmu0").unwrap();
        assert_eq!(&*d2.lock(), &[9u8], "durable image must survive");
    }

    #[test]
    fn get_without_create() {
        let mut store = DurableStore::new();
        assert!(store.get::<u64>("nope").is_none());
        store.get_or_insert_with("n", || 5u64);
        assert_eq!(*store.get::<u64>("n").unwrap().lock(), 5);
        assert!(store.contains("n"));
    }

    #[test]
    fn keys_sorted_and_remove() {
        let mut store = DurableStore::new();
        store.get_or_insert_with("b", || 1u8);
        store.get_or_insert_with("a", || 1u8);
        assert_eq!(store.keys(), vec!["a".to_string(), "b".to_string()]);
        assert!(store.remove("a"));
        assert!(!store.remove("a"));
    }
}
