//! Global string interning.
//!
//! Every atom and functor name in the logic engine is represented by a
//! [`Sym`]: a 32-bit index into a process-wide intern table. Interned
//! strings live for the lifetime of the process (they are leaked once, on
//! first interning), which lets [`Sym::as_str`] hand out `&'static str`
//! without holding any lock.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned string (atom name, functor name, or string constant).
///
/// `Sym` is `Copy` and comparison/hashing are O(1) integer operations.
/// Two `Sym`s are equal iff the strings they intern are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Sym {
    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(s: &str) -> Sym {
        // Fast path: already interned.
        {
            let t = table().read().unwrap();
            if let Some(&id) = t.map.get(s) {
                return Sym(id);
            }
        }
        let mut t = table().write().unwrap();
        if let Some(&id) = t.map.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(t.strings.len()).expect("interner overflow");
        t.strings.push(leaked);
        t.map.insert(leaked, id);
        Sym(id)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        let t = table().read().unwrap();
        t.strings[self.0 as usize]
    }

    /// How many distinct strings have been interned so far in this process.
    /// Interned strings are never freed, so a count that keeps growing
    /// under a steady workload is a leak.
    pub fn interned_count() -> usize {
        table().read().unwrap().strings.len()
    }

    /// Raw index (useful for dense side tables).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Sym::intern("hello");
        let b = Sym::intern("hello");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello");
    }

    #[test]
    fn distinct_strings_distinct_syms() {
        assert_ne!(Sym::intern("foo"), Sym::intern("bar"));
    }

    #[test]
    fn empty_string_interns() {
        let e = Sym::intern("");
        assert_eq!(e.as_str(), "");
    }

    #[test]
    fn unicode_interning() {
        let s = Sym::intern("通貨");
        assert_eq!(s.as_str(), "通貨");
    }

    #[test]
    fn display_matches_str() {
        let s = Sym::intern("currency");
        assert_eq!(format!("{s}"), "currency");
    }

    #[test]
    fn concurrent_interning_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Sym::intern("concurrent-key").index()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
