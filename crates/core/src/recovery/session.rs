//! What the driver keeps from one sort to the next.

use super::memo::CarriedEntries;
use std::any::{Any, TypeId};
use std::cell::RefCell;

/// What one run leaves the next: a stripe buffer, a spare key buffer per
/// key type and the carried memo entries, each allocated once and written
/// in place (a stripe buffer freed per sort, or a carried entry boxed anew
/// per launch, raised `host_bench`'s `fig5_worst` peak RSS by 12%).
/// `Driver::run` borrows its fields for one run. The public entry points
/// and both services use the calling thread's default session: a service
/// per `host_bench` operation with a session of its own would drop the
/// carried entries the next operation replays from.
#[derive(Default)]
pub(crate) struct Session {
    /// The stripe buffer of the session's last sort.
    pub(crate) stripes: Vec<u64>,
    /// One spare key buffer per key type `K`: a `Vec<K>` holding what the
    /// session's last sort of `K` left.
    pub(crate) spares: Vec<(TypeId, Box<dyn Any>)>,
    /// Each launch kind's carried memo entry.
    pub(crate) carried: CarriedEntries,
}

thread_local! {
    static DEFAULT: RefCell<Session> = RefCell::default();
}

impl Session {
    /// Run `f` in the calling thread's default session.
    pub(crate) fn with_default<T>(f: impl FnOnce(&mut Session) -> T) -> T {
        DEFAULT.with(|session| f(&mut session.borrow_mut()))
    }
}

/// The entry under `key`, a `T`, made with `T::default()` if there is
/// none.
pub(super) fn entry<Key: PartialEq, T: Default + 'static>(
    entries: &mut Vec<(Key, Box<dyn Any>)>,
    key: Key,
) -> &mut T {
    let at = match entries.iter().position(|(k, _)| *k == key) {
        Some(at) => at,
        None => {
            entries.push((key, Box::new(T::default())));
            entries.len() - 1
        }
    };
    entries[at].1.downcast_mut().expect("a key fixes its entry's type")
}
