//! String interning for predicate names, symbolic constants, and variables.
//!
//! Reasoning touches the same names millions of times; interning makes
//! equality a `u32` compare and keeps tuples compact.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string. Cheap to copy, hash, and compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<String, u32>,
    strings: Vec<String>,
}

/// A process-global interner. Symbols are tiny and programs reuse the same
/// names across databases and reasoner instances, so global interning avoids
/// threading a table through every API.
fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns a string.
    pub fn new(s: &str) -> Symbol {
        let mut i = interner().lock().expect("interner poisoned");
        if let Some(&id) = i.map.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(i.strings.len()).expect("interner overflow");
        i.strings.push(s.to_string());
        i.map.insert(s.to_string(), id);
        Symbol(id)
    }

    /// The interned text (allocates a copy; use only for display paths).
    pub fn as_str(&self) -> String {
        interner().lock().expect("interner poisoned").strings[self.0 as usize].clone()
    }

    /// The interned id: what a packed value carries.
    pub(crate) fn index(self) -> u32 {
        self.0
    }

    /// The symbol of an id [`Symbol::index`] returned.
    pub(crate) fn from_index(id: u32) -> Symbol {
        Symbol(id)
    }

    /// Number of distinct strings interned so far (stats-json `storage`).
    pub(crate) fn interned_count() -> usize {
        interner().lock().expect("interner poisoned").strings.len()
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("margin");
        let b = Symbol::new("margin");
        let c = Symbol::new("position");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "margin");
        assert_eq!(c.as_str(), "position");
    }

    #[test]
    fn display_shows_text() {
        let s = Symbol::new("tranM");
        assert_eq!(s.to_string(), "tranM");
        assert_eq!(format!("{s:?}"), "tranM");
    }
}
