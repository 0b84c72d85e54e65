//! Per-transaction object pins.
//!
//! A boosted mutation logs an inverse (and, for versioned objects, a
//! commit-time version install) that must reach the shared base object
//! after the call returns. Capturing `Arc::clone(&self.base)` in every
//! logged closure costs two atomic read-modify-writes on the object's
//! refcount per call (clone now, drop at commit or abort), and that
//! refcount is one cache line every thread mutating the object writes,
//! however disjoint their keys.
//!
//! A pin replaces those per-call clones with one per transaction: the
//! first mutation of an object in a transaction clones its `Arc` into
//! the transaction's [`Pins`] table ([`crate::Txn::pin`]) and later
//! mutations find it there. Logged closures capture only the one-word
//! [`PinId`] and receive the table as their argument when they run
//! (abort replay, savepoint rollback, commit-time installs). The table
//! keeps every pinned object alive until the transaction is finished,
//! so an inverse can run after its caller dropped its own handle.
//!
//! Access is checked, not trusted: [`Pins::get`] panics on an id minted
//! by another transaction, on an id past the table, and on a type that
//! does not match the pinned object. Everything here is safe code (the
//! type check is `Any::downcast_ref`).

use crate::inline::InlineVec;
use std::any::Any;
use std::sync::Arc;

/// Pins held inline before the table spills to the heap: the busiest
/// in-tree transaction pins three objects per boosted collection (base,
/// version store and abstract-lock table) on at most two collections.
const PINS_INLINE: usize = 6;

/// Bits of a [`PinId`] holding the table index; the rest hold the low
/// bits of the owning transaction's id.
const INDEX_BITS: u32 = 16;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

/// A handle to one object pinned by one transaction: the transaction's
/// id (low 48 bits) and the table index (low 16 bits). `Copy`, one word,
/// and meaningless outside the transaction that minted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinId(u64);

/// The table of objects a transaction has pinned; see the module docs.
/// Handed by reference to every logged closure when it runs.
#[derive(Default)]
pub struct Pins {
    /// Tag of the owning transaction (its id shifted into a
    /// [`PinId`]'s upper bits); 0 for a table with no owner.
    tag: u64,
    slots: InlineVec<Arc<dyn Any + Send + Sync>, PINS_INLINE>,
}

impl std::fmt::Debug for Pins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pins")
            .field("pinned", &self.slots.len())
            .finish()
    }
}

impl Pins {
    /// An empty table owned by the transaction with raw id `txn`.
    pub(crate) fn new(txn: u64) -> Self {
        Pins {
            tag: txn << INDEX_BITS,
            slots: InlineVec::default(),
        }
    }

    /// Pin `obj`, or find it already pinned: the first call per object
    /// clones the `Arc` once; later calls only compare pointers.
    ///
    /// # Panics
    /// Panics if one transaction pins more than 65 536 objects.
    pub(crate) fn pin<T: Any + Send + Sync>(&mut self, obj: &Arc<T>) -> PinId {
        let addr = Arc::as_ptr(obj).cast::<()>();
        let found = self
            .slots
            .iter()
            .position(|p| std::ptr::eq(Arc::as_ptr(p).cast::<()>(), addr));
        let index = found.unwrap_or_else(|| {
            let i = self.slots.len();
            assert!(
                (i as u64) <= INDEX_MASK,
                "a transaction may pin at most {} objects",
                INDEX_MASK + 1
            );
            self.slots
                .push(Arc::clone(obj) as Arc<dyn Any + Send + Sync>);
            i
        });
        PinId(self.tag | index as u64)
    }

    /// The object `id` pins, as a `T`.
    ///
    /// # Panics
    /// Panics if `id` was minted by another transaction, if it does not
    /// name an entry of this table, or if the pinned object is not a
    /// `T`. No unchecked access exists, so a wrong id can stop the
    /// transaction but never read another object.
    pub fn get<T: Any>(&self, id: PinId) -> &T {
        assert_eq!(
            id.0 & !INDEX_MASK,
            self.tag,
            "pin id from another transaction"
        );
        let index = (id.0 & INDEX_MASK) as usize;
        let slot = self
            .slots
            .get(index)
            .unwrap_or_else(|| panic!("pin id {index} is past this transaction's pins"));
        let any: &(dyn Any + Send + Sync) = &**slot;
        any.downcast_ref::<T>().unwrap_or_else(|| {
            panic!(
                "pin {index} holds another type than {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// Drop every pin (the transaction is finished).
    pub(crate) fn clear(&mut self) {
        while self.slots.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repinning_an_object_reuses_its_slot_and_refcount() {
        let a = Arc::new(5u32);
        let b = Arc::new(String::from("b"));
        let mut pins = Pins::new(7);
        let pa = pins.pin(&a);
        let pb = pins.pin(&b);
        assert_eq!(pins.pin(&a), pa);
        assert_eq!(pins.slots.len(), 2);
        assert_eq!(Arc::strong_count(&a), 2, "one clone per object");
        assert_eq!(*pins.get::<u32>(pa), 5);
        assert_eq!(pins.get::<String>(pb), "b");
        pins.clear();
        assert_eq!(Arc::strong_count(&a), 1);
    }

    #[test]
    fn pins_spill_past_the_inline_slots() {
        let objs: Vec<Arc<usize>> = (0..PINS_INLINE * 3).map(Arc::new).collect();
        let mut pins = Pins::new(1);
        let ids: Vec<PinId> = objs.iter().map(|o| pins.pin(o)).collect();
        for (i, id) in ids.into_iter().enumerate() {
            assert_eq!(*pins.get::<usize>(id), i);
        }
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn type_mismatch_panics() {
        let mut pins = Pins::new(1);
        let id = pins.pin(&Arc::new(1u64));
        let _ = pins.get::<i64>(id);
    }

    #[test]
    #[should_panic(expected = "another transaction")]
    fn foreign_pin_ids_are_rejected() {
        let mut mine = Pins::new(1);
        let mut theirs = Pins::new(2);
        mine.pin(&Arc::new(1u64));
        let id = theirs.pin(&Arc::new(2u64));
        let _ = mine.get::<u64>(id);
    }

    #[test]
    #[should_panic(expected = "past this transaction's pins")]
    fn ids_past_the_table_are_rejected() {
        let mut pins = Pins::new(3);
        let id = pins.pin(&Arc::new(1u64));
        pins.clear();
        let _ = pins.get::<u64>(id);
    }
}
