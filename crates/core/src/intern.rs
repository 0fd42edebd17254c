//! Global string interning.
//!
//! The evaluation hot path compares class names, enum variants and
//! attribute names millions of times per analysis; comparing (and cloning)
//! heap `String`s there is pure overhead. A [`Symbol`] is a `u32` handle
//! into a process-wide, append-only string table: interning a name costs
//! one hash lookup, after which equality is a single integer compare and
//! copying is free.
//!
//! Interned strings are leaked (the table lives for the process), so
//! [`Symbol::as_str`] can hand out `&'static str` — downstream code resolves
//! names once at compile time and keeps the static reference.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// A handle to an interned string. Equality and hashing operate on the
/// `u32` id; two symbols are equal iff their strings are equal.
///
/// Symbols deliberately do **not** implement `Ord`: ids reflect interning
/// order, not lexicographic order. Sort by [`Symbol::as_str`] when a
/// user-visible ordering is needed.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

#[derive(Default)]
struct Interner {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(Interner::default()))
}

impl Symbol {
    /// Intern a string, returning its stable symbol.
    pub fn intern(name: &str) -> Symbol {
        Symbol(Self::lookup(name).1)
    }

    /// Intern a string, returning the interned text: `intern(name).as_str()`
    /// in one lookup.
    pub fn intern_str(name: &str) -> &'static str {
        Self::lookup(name).0
    }

    /// The interned text of `name` and its id, interned on first ask.
    fn lookup(name: &str) -> (&'static str, u32) {
        {
            let t = table().read().expect("interner poisoned");
            if let Some((&text, &id)) = t.by_name.get_key_value(name) {
                return (text, id);
            }
        }
        let mut t = table().write().expect("interner poisoned");
        if let Some((&text, &id)) = t.by_name.get_key_value(name) {
            return (text, id);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(t.names.len()).expect("interner overflow");
        t.names.push(leaked);
        t.by_name.insert(leaked, id);
        (leaked, id)
    }

    /// The interned string. The reference is `'static` because the table
    /// never frees entries.
    pub fn as_str(self) -> &'static str {
        table().read().expect("interner poisoned").names[self.0 as usize]
    }

    /// The raw table id (diagnostics only; ids are not stable across
    /// processes).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("Region");
        let b = Symbol::intern("Region");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "Region");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("TotTimes"), Symbol::intern("TypTimes"));
    }

    #[test]
    fn compares_against_str() {
        let s = Symbol::intern("Barrier");
        assert!(s == "Barrier");
        assert!(s != "Lock");
    }

    #[test]
    fn display_roundtrips() {
        assert_eq!(Symbol::intern("NoPe").to_string(), "NoPe");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("concurrent-case")))
            .collect();
        let ids: Vec<u32> = handles
            .into_iter()
            .map(|h| h.join().unwrap().id())
            .collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
