//! The in-memory write buffer of the LSM tree.

use std::collections::BTreeMap;
use std::ops::Bound;

/// A sorted in-memory buffer of recent writes.
///
/// Values are `Option<Vec<u8>>`: `None` is a **tombstone** recording
/// a deletion that must shadow older versions in SSTables until
/// compaction physically removes them.
#[derive(Debug, Default)]
pub struct MemTable {
    entries: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    approximate_bytes: usize,
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        MemTable::default()
    }

    /// Records a put. Returns the previous in-memtable entry, if any.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Option<Option<Vec<u8>>> {
        self.approximate_bytes += key.len() + value.len() + 16;
        self.entries.insert(key.to_vec(), Some(value.to_vec()))
    }

    /// Records a deletion tombstone.
    pub fn delete(&mut self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        self.approximate_bytes += key.len() + 16;
        self.entries.insert(key.to_vec(), None)
    }

    /// Looks up `key`.
    ///
    /// * `None` — the memtable knows nothing about the key; consult
    ///   older sources.
    /// * `Some(None)` — the key was deleted here; stop searching.
    /// * `Some(Some(v))` — the current value.
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.entries.get(key).map(|v| v.as_deref())
    }

    /// Number of entries, tombstones included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rough memory footprint used to decide when to flush.
    pub fn approximate_bytes(&self) -> usize {
        self.approximate_bytes
    }

    /// Iterates all entries in key order (tombstones included).
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> {
        self.entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_deref()))
    }

    /// Iterates entries with keys in `[start, end)` in key order
    /// (tombstones included). An empty `end` means "to the end".
    pub fn range<'a>(
        &'a self,
        start: &[u8],
        end: &[u8],
    ) -> impl Iterator<Item = (&'a [u8], Option<&'a [u8]>)> + 'a {
        let upper: Bound<Vec<u8>> = if end.is_empty() {
            Bound::Unbounded
        } else {
            Bound::Excluded(end.to_vec())
        };
        self.entries
            .range((Bound::Included(start.to_vec()), upper))
            .map(|(k, v)| (k.as_slice(), v.as_deref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut mt = MemTable::new();
        assert_eq!(mt.get(b"k"), None);
        mt.put(b"k", b"v1");
        assert_eq!(mt.get(b"k"), Some(Some(b"v1".as_ref())));
        mt.put(b"k", b"v2");
        assert_eq!(mt.get(b"k"), Some(Some(b"v2".as_ref())));
        mt.delete(b"k");
        assert_eq!(mt.get(b"k"), Some(None));
        assert_eq!(mt.len(), 1, "tombstone still occupies the slot");
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut mt = MemTable::new();
        mt.put(b"c", b"3");
        mt.put(b"a", b"1");
        mt.put(b"b", b"2");
        let keys: Vec<&[u8]> = mt.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"a".as_ref(), b"b", b"c"]);
    }

    #[test]
    fn range_bounds_are_half_open() {
        let mut mt = MemTable::new();
        for k in ["a", "b", "c", "d"] {
            mt.put(k.as_bytes(), b"v");
        }
        let keys: Vec<&[u8]> = mt.range(b"b", b"d").map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"b".as_ref(), b"c"]);
        let keys: Vec<&[u8]> = mt.range(b"c", b"").map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"c".as_ref(), b"d"]);
    }

    #[test]
    fn size_accounting_grows_with_writes() {
        let mut mt = MemTable::new();
        assert_eq!(mt.approximate_bytes(), 0);
        mt.put(b"key", b"value");
        let after_put = mt.approximate_bytes();
        assert!(after_put > 0);
        mt.delete(b"key");
        assert!(mt.approximate_bytes() > after_put);
    }
}
