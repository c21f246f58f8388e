//! Global string interner for activity tags and node names.
//!
//! Tags used to be owned `String`s carried inside every activity — a heap
//! allocation per activity in the platform drivers' construction loops and a
//! clone whenever a graph was copied or truncated. A [`Symbol`] is a `u32`
//! handle into a process-wide append-only table: interning the same text
//! always yields the same handle, comparisons are integer compares, and
//! resolution returns a `&'static str` (the table never frees).
//!
//! Determinism: the id assigned to a given string depends only on the order
//! of first interning within the process, which the engine never relies on —
//! every ordered operation ([`crate::activity::ActivityGraph::tagged`],
//! serde) resolves symbols back to text first. Re-interning a string is
//! idempotent and returns the original id, so symbol↔string is a bijection
//! for the life of the process.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

use serde::{DeError, Deserialize, Serialize, Value};

/// Interned string handle. `Copy`-cheap, `Eq` by id (equal text ⇔ equal id).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    list: Vec<&'static str>,
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            list: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `s`, returning its stable handle. The first interning of a
    /// string leaks one copy of it; later calls are a read-locked lookup.
    pub fn intern(s: &str) -> Symbol {
        {
            let t = table().read().unwrap();
            if let Some(&id) = t.map.get(s) {
                return Symbol(id);
            }
        }
        let mut t = table().write().unwrap();
        // Re-check under the write lock: another thread may have won.
        if let Some(&id) = t.map.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(t.list.len()).expect("interner overflow");
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        t.list.push(leaked);
        t.map.insert(leaked, id);
        Symbol(id)
    }

    /// The interned text. O(1) behind a read lock.
    pub fn as_str(self) -> &'static str {
        table().read().unwrap().list[self.0 as usize]
    }

    /// The raw table index (diagnostics only — not stable across processes).
    pub fn index(self) -> u32 {
        self.0
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

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

/// Symbols serialize as their text so archives and fixtures stay portable
/// across processes (raw ids are process-local).
impl Serialize for Symbol {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Symbol {
    fn from_value(v: &Value) -> Result<Symbol, DeError> {
        match v {
            Value::Str(s) => Ok(Symbol::intern(s)),
            _ => Err(DeError::expected("string (interned symbol)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("intern-test/alpha");
        let b = Symbol::intern("intern-test/alpha");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "intern-test/alpha");
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let a = Symbol::intern("intern-test/x");
        let b = Symbol::intern("intern-test/y");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "intern-test/x");
        assert_eq!(b.as_str(), "intern-test/y");
    }

    #[test]
    fn empty_string_interns() {
        let e = Symbol::intern("");
        assert_eq!(e.as_str(), "");
        assert_eq!(e, Symbol::intern(""));
    }

    #[test]
    fn display_matches_text() {
        let s = Symbol::intern("intern-test/display");
        assert_eq!(s.to_string(), "intern-test/display");
        assert_eq!(format!("{s:?}"), "Symbol(\"intern-test/display\")");
    }

    #[test]
    fn serde_round_trips_as_text() {
        let s = Symbol::intern("intern-test/serde");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"intern-test/serde\"");
        let back: Symbol = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let ids: Vec<Symbol> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| Symbol::intern("intern-test/concurrent")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
