//! The database facade: memtable + WAL + SSTables + compaction.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use crate::batch::WriteBatch;
use crate::error::{Error, Result};
use crate::iterator::MergeIterator;
use crate::memtable::MemTable;
use crate::metrics::KvMetrics;
use crate::options::DbOptions;
use crate::sstable::{self, SsTable, SsTableWriter};
use crate::wal::{Wal, WalOp};

const WAL_FILE: &str = "wal.log";

struct State {
    memtable: MemTable,
    wal: Option<Wal>,
    /// Flushed tables, newest first.
    tables: Vec<Arc<SsTable>>,
    next_table_id: u64,
}

struct DbInner {
    options: DbOptions,
    dir: Option<PathBuf>,
    state: RwLock<State>,
    metrics: KvMetrics,
}

/// An embedded LSM-tree key-value store.
///
/// `Db` is cheaply cloneable ([`Arc`]-backed) and safe to share
/// across threads: reads take a shared lock, writes an exclusive one.
/// See the [crate documentation](crate) for the storage design.
#[derive(Clone)]
pub struct Db {
    inner: Arc<DbInner>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.read();
        f.debug_struct("Db")
            .field("dir", &self.inner.dir)
            .field("memtable_entries", &state.memtable.len())
            .field("tables", &state.tables.len())
            .finish()
    }
}

impl Db {
    /// Opens (or creates) a disk-backed store under `dir`, replaying
    /// the write-ahead log and loading existing SSTables.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for invalid options,
    /// [`Error::Corrupt`] for damaged files, or I/O failures.
    pub fn open(dir: impl Into<PathBuf>, options: DbOptions) -> Result<Self> {
        options.validate()?;
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        // Load SSTables, newest (highest id) first. A leftover
        // `.sst.tmp` is a table whose flush or compaction died before
        // its rename; the WAL or the input tables still hold its
        // entries, so it is deleted.
        let mut ids: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(sstable::TMP_EXTENSION) {
                fs::remove_file(&path)?;
            } else if let Some(id) = name.strip_suffix(".sst").and_then(|s| s.parse().ok()) {
                ids.push(id);
            }
        }
        ids.sort_unstable_by(|a, b| b.cmp(a));
        let mut tables = Vec::with_capacity(ids.len());
        for id in &ids {
            tables.push(Arc::new(SsTable::open(Self::table_path(&dir, *id))?));
        }
        let next_table_id = ids.first().map_or(1, |max| max + 1);

        // Replay the WAL into a fresh memtable. `recover` truncates a
        // torn tail (crash mid-append) so the appends below land
        // where the next replay will find them.
        let mut memtable = MemTable::new();
        let (ops, _torn) = Wal::recover(&dir.join(WAL_FILE))?;
        for op in ops {
            match op {
                WalOp::Put { key, value } => {
                    memtable.put(&key, &value);
                }
                WalOp::Delete { key } => {
                    memtable.delete(&key);
                }
            }
        }
        let wal = if options.wal_enabled() {
            Some(Wal::open(dir.join(WAL_FILE), options.sync_policy_value())?)
        } else {
            None
        };

        let db = Db {
            inner: Arc::new(DbInner {
                options,
                dir: Some(dir),
                state: RwLock::new(State {
                    memtable,
                    wal,
                    tables,
                    next_table_id,
                }),
                metrics: KvMetrics::new(),
            }),
        };
        db.update_gauges(&db.inner.state.read());
        Ok(db)
    }

    /// Opens a purely in-memory store: no WAL, no SSTables, contents
    /// lost on drop. The memtable grows without flushing.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for invalid options.
    pub fn open_in_memory(options: DbOptions) -> Result<Self> {
        options.validate()?;
        Ok(Db {
            inner: Arc::new(DbInner {
                options,
                dir: None,
                state: RwLock::new(State {
                    memtable: MemTable::new(),
                    wal: None,
                    tables: Vec::new(),
                    next_table_id: 1,
                }),
                metrics: KvMetrics::new(),
            }),
        })
    }

    /// Registers this store's latency histograms and size gauges into
    /// `registry` under the `kv_*` names. Recording stays on the same
    /// cells, so the registry renders current values from then on.
    pub fn register_metrics(&self, registry: &strata_obs::Registry) {
        self.inner.metrics.register_into(registry);
    }

    /// Refreshes the size gauges from the locked state.
    fn update_gauges(&self, state: &State) {
        self.inner.metrics.sstables.set(state.tables.len() as i64);
        self.inner
            .metrics
            .memtable_bytes
            .set(state.memtable.approximate_bytes() as i64);
    }

    fn table_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("{id:012}.sst"))
    }

    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// I/O failures (WAL append or a triggered flush/compaction).
    pub fn put(&self, key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> Result<()> {
        let started = Instant::now();
        let (key, value) = (key.as_ref(), value.as_ref());
        let mut state = self.inner.state.write();
        let result = (|| {
            if let Some(wal) = &mut state.wal {
                wal.log_put(key, value)?;
            }
            state.memtable.put(key, value);
            self.maybe_flush(&mut state)
        })();
        self.update_gauges(&state);
        drop(state);
        self.inner.metrics.put_ns.record_since(started);
        result
    }

    /// Deletes `key` (writing a tombstone).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn delete(&self, key: impl AsRef<[u8]>) -> Result<()> {
        let started = Instant::now();
        let key = key.as_ref();
        let mut state = self.inner.state.write();
        let result = (|| {
            if let Some(wal) = &mut state.wal {
                wal.log_delete(key)?;
            }
            state.memtable.delete(key);
            self.maybe_flush(&mut state)
        })();
        self.update_gauges(&state);
        drop(state);
        // Tombstone writes share the put latency series.
        self.inner.metrics.put_ns.record_since(started);
        result
    }

    /// Applies a [`WriteBatch`] atomically.
    ///
    /// # Errors
    ///
    /// I/O failures; on a WAL error no operation of the batch is
    /// applied.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        let started = Instant::now();
        let mut state = self.inner.state.write();
        let result = (|| {
            if let Some(wal) = &mut state.wal {
                for (key, value) in &batch.ops {
                    match value {
                        Some(value) => wal.log_put(key, value)?,
                        None => wal.log_delete(key)?,
                    }
                }
            }
            for (key, value) in &batch.ops {
                match value {
                    Some(value) => state.memtable.put(key, value),
                    None => state.memtable.delete(key),
                };
            }
            self.maybe_flush(&mut state)
        })();
        self.update_gauges(&state);
        drop(state);
        self.inner.metrics.put_ns.record_since(started);
        result
    }

    /// Looks up `key`, returning the most recent version across the
    /// memtable and all SSTables.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] or I/O failures while reading tables.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Vec<u8>>> {
        let started = Instant::now();
        let key = key.as_ref();
        let state = self.inner.state.read();
        let result = (|| {
            if let Some(hit) = state.memtable.get(key) {
                return Ok(hit.map(<[u8]>::to_vec));
            }
            for table in &state.tables {
                if let Some(hit) = table.get(key)? {
                    return Ok(hit);
                }
            }
            Ok(None)
        })();
        drop(state);
        self.inner.metrics.get_ns.record_since(started);
        result
    }

    /// All live `(key, value)` pairs with keys in `[start, end)`, in
    /// key order. An empty `end` scans to the end of the keyspace.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] or I/O failures.
    pub fn range(
        &self,
        start: impl AsRef<[u8]>,
        end: impl AsRef<[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let (start, end) = (start.as_ref(), end.as_ref());
        let state = self.inner.state.read();
        #[allow(clippy::type_complexity)]
        let mut sources: Vec<std::vec::IntoIter<(Vec<u8>, Option<Vec<u8>>)>> = Vec::new();
        let mem: Vec<_> = state
            .memtable
            .range(start, end)
            .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
            .collect();
        sources.push(mem.into_iter());
        for table in &state.tables {
            sources.push(table.range(start, end)?.into_iter());
        }
        Ok(MergeIterator::new(sources)
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect())
    }

    /// All live pairs whose key starts with `prefix`, in key order.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] or I/O failures.
    pub fn scan_prefix(&self, prefix: impl AsRef<[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let prefix = prefix.as_ref();
        let end = prefix_end(prefix);
        self.range(prefix, end.as_deref().unwrap_or(&[]))
    }

    /// Forces the memtable into a new SSTable regardless of size.
    /// No-op when the memtable is empty.
    ///
    /// # Errors
    ///
    /// [`Error::MemoryMode`] for in-memory stores; I/O failures.
    pub fn flush(&self) -> Result<()> {
        let mut state = self.inner.state.write();
        if self.inner.dir.is_none() {
            return Err(Error::MemoryMode);
        }
        self.flush_locked(&mut state)
    }

    /// Merges every SSTable into one, dropping shadowed versions and
    /// tombstones. No-op with fewer than two tables.
    ///
    /// # Errors
    ///
    /// [`Error::MemoryMode`] for in-memory stores; I/O failures.
    pub fn compact(&self) -> Result<()> {
        let mut state = self.inner.state.write();
        if self.inner.dir.is_none() {
            return Err(Error::MemoryMode);
        }
        self.compact_locked(&mut state)
    }

    /// Number of SSTables currently on disk.
    pub fn table_count(&self) -> usize {
        self.inner.state.read().tables.len()
    }

    /// Number of entries (tombstones included) in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.inner.state.read().memtable.len()
    }

    fn maybe_flush(&self, state: &mut State) -> Result<()> {
        if self.inner.dir.is_none() {
            return Ok(()); // Memory mode: the memtable is the store.
        }
        if state.memtable.approximate_bytes() < self.inner.options.memtable_bytes_value() {
            return Ok(());
        }
        self.flush_locked(state)?;
        if state.tables.len() > self.inner.options.compaction_trigger_value() {
            self.compact_locked(state)?;
        }
        Ok(())
    }

    fn flush_locked(&self, state: &mut State) -> Result<()> {
        if state.memtable.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let dir = self.inner.dir.as_ref().expect("disk mode checked");
        let id = state.next_table_id;
        state.next_table_id += 1;
        let mut writer = SsTableWriter::create(
            Self::table_path(dir, id),
            self.inner.options.block_bytes_value(),
            state.memtable.len(),
            self.inner.options.bloom_bits_per_key_value(),
        )?;
        for (key, value) in state.memtable.iter() {
            writer.add(key, value)?;
        }
        let table = writer.finish()?;
        // Make the new table's directory entry durable before the WAL
        // holding its contents is retired.
        strata_chaos::fsync_dir(dir)?;
        state.tables.insert(0, Arc::new(table));
        // Only now is the memtable retired: a failed write above
        // leaves it serving reads.
        state.memtable = MemTable::new();
        if let Some(wal) = state.wal.take() {
            wal.remove()?;
            state.wal = Some(Wal::open(
                dir.join(WAL_FILE),
                self.inner.options.sync_policy_value(),
            )?);
        }
        self.update_gauges(state);
        self.inner.metrics.flush_ns.record_since(started);
        Ok(())
    }

    fn compact_locked(&self, state: &mut State) -> Result<()> {
        if state.tables.len() < 2 {
            return Ok(());
        }
        let started = Instant::now();
        let dir = self.inner.dir.as_ref().expect("disk mode checked");
        let mut sources = Vec::with_capacity(state.tables.len());
        let mut expected = 0usize;
        for table in &state.tables {
            let entries = table.scan_all()?;
            expected += entries.len();
            sources.push(entries.into_iter());
        }
        let id = state.next_table_id;
        state.next_table_id += 1;
        let mut writer = SsTableWriter::create(
            Self::table_path(dir, id),
            self.inner.options.block_bytes_value(),
            expected,
            self.inner.options.bloom_bits_per_key_value(),
        )?;
        // Full merge: every version of every key is present, so
        // tombstones can be dropped, not just applied.
        for (key, value) in MergeIterator::new(sources) {
            if let Some(value) = value {
                writer.add(&key, Some(&value))?;
            }
        }
        let merged = Arc::new(writer.finish()?);
        strata_chaos::fsync_dir(dir)?;
        let old = std::mem::replace(&mut state.tables, vec![merged]);
        for table in old {
            fs::remove_file(table.path())?;
        }
        // Persist the removals so a crash cannot resurrect stale
        // tables next to the merged one.
        strata_chaos::fsync_dir(dir)?;
        self.update_gauges(state);
        self.inner.metrics.compact_ns.record_since(started);
        Ok(())
    }
}

/// The smallest byte string greater than every string with `prefix`,
/// or `None` when the prefix is all `0xFF` (scan to the end).
fn prefix_end(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(&last) = end.last() {
        if last == 0xFF {
            end.pop();
        } else {
            *end.last_mut().expect("non-empty") += 1;
            return Some(end);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("strata-kv-db-{tag}-{}", std::process::id()))
    }

    fn small_options() -> DbOptions {
        DbOptions::default()
            .memtable_bytes(512)
            .block_bytes(128)
            .compaction_trigger(3)
    }

    #[test]
    fn memory_mode_put_get_delete() {
        let db = Db::open_in_memory(DbOptions::default()).unwrap();
        db.put("a", "1").unwrap();
        assert_eq!(db.get("a").unwrap(), Some(b"1".to_vec()));
        db.delete("a").unwrap();
        assert_eq!(db.get("a").unwrap(), None);
        assert!(matches!(db.flush(), Err(Error::MemoryMode)));
        assert!(matches!(db.compact(), Err(Error::MemoryMode)));
    }

    #[test]
    fn disk_mode_survives_reopen() {
        let dir = temp_dir("reopen");
        let _ = fs::remove_dir_all(&dir);
        {
            let db = Db::open(&dir, small_options()).unwrap();
            db.put("persistent", "yes").unwrap();
            db.put("doomed", "soon").unwrap();
            db.delete("doomed").unwrap();
        } // Only the WAL holds the data at this point.
        let db = Db::open(&dir, small_options()).unwrap();
        assert_eq!(db.get("persistent").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(db.get("doomed").unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_moves_data_to_sstables_and_reopen_reads_them() {
        let dir = temp_dir("flush");
        let _ = fs::remove_dir_all(&dir);
        {
            let db = Db::open(&dir, small_options()).unwrap();
            for i in 0..100 {
                db.put(format!("key-{i:04}"), format!("value-{i}")).unwrap();
            }
            db.flush().unwrap();
            assert_eq!(db.memtable_len(), 0);
            assert!(db.table_count() >= 1);
        }
        let db = Db::open(&dir, small_options()).unwrap();
        assert_eq!(db.get("key-0042").unwrap(), Some(b"value-42".to_vec()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newest_version_wins_across_tables_and_memtable() {
        let dir = temp_dir("versions");
        let _ = fs::remove_dir_all(&dir);
        let db = Db::open(&dir, small_options()).unwrap();
        db.put("k", "v1").unwrap();
        db.flush().unwrap();
        db.put("k", "v2").unwrap();
        db.flush().unwrap();
        db.put("k", "v3").unwrap(); // still in memtable
        assert_eq!(db.get("k").unwrap(), Some(b"v3".to_vec()));
        db.flush().unwrap();
        assert_eq!(db.get("k").unwrap(), Some(b"v3".to_vec()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tombstones_shadow_flushed_values() {
        let dir = temp_dir("tombstone");
        let _ = fs::remove_dir_all(&dir);
        let db = Db::open(&dir, small_options()).unwrap();
        db.put("gone", "was-here").unwrap();
        db.flush().unwrap();
        db.delete("gone").unwrap();
        assert_eq!(db.get("gone").unwrap(), None);
        db.flush().unwrap();
        assert_eq!(db.get("gone").unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_collapses_tables_and_drops_tombstones() {
        let dir = temp_dir("compact");
        let _ = fs::remove_dir_all(&dir);
        let db = Db::open(&dir, small_options()).unwrap();
        for round in 0..4 {
            for i in 0..20 {
                db.put(format!("key-{i:03}"), format!("round-{round}"))
                    .unwrap();
            }
            db.delete(format!("key-{round:03}")).unwrap();
            db.flush().unwrap();
        }
        assert!(db.table_count() >= 4);
        db.compact().unwrap();
        assert_eq!(db.table_count(), 1);
        // key-000 was deleted in round 0 but rewritten by rounds 1-3.
        assert_eq!(db.get("key-000").unwrap(), Some(b"round-3".to_vec()));
        // key-003 was deleted in round 3, after its round-3 write.
        assert_eq!(db.get("key-003").unwrap(), None);
        assert_eq!(db.get("key-010").unwrap(), Some(b"round-3".to_vec()));
        // Reopen still reads the merged table.
        drop(db);
        let db = Db::open(&dir, small_options()).unwrap();
        assert_eq!(db.get("key-010").unwrap(), Some(b"round-3".to_vec()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn automatic_flush_and_compaction_under_load() {
        let dir = temp_dir("auto");
        let _ = fs::remove_dir_all(&dir);
        let db = Db::open(&dir, small_options()).unwrap();
        for i in 0..2_000u32 {
            db.put(format!("key-{:06}", i % 500), format!("v{i}"))
                .unwrap();
        }
        // Memtable limit is 512 bytes: flushes and compactions happened.
        assert!(db.table_count() >= 1);
        assert!(db.table_count() <= small_options().compaction_trigger_value() + 1);
        assert_eq!(
            db.get("key-000499").unwrap(),
            Some(b"v1999".to_vec()),
            "latest write of key 499"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn range_and_prefix_scans_merge_all_sources() {
        let dir = temp_dir("scan");
        let _ = fs::remove_dir_all(&dir);
        let db = Db::open(&dir, small_options()).unwrap();
        db.put("job/1/low", "100").unwrap();
        db.put("job/1/high", "900").unwrap();
        db.flush().unwrap();
        db.put("job/2/low", "150").unwrap();
        db.put("job/1/low", "120").unwrap(); // overwrite in memtable
        db.delete("job/1/high").unwrap();
        let got = db.scan_prefix("job/1/").unwrap();
        assert_eq!(got, vec![(b"job/1/low".to_vec(), b"120".to_vec())]);
        let all = db.scan_prefix("job/").unwrap();
        assert_eq!(all.len(), 2);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_batch_is_atomic_and_ordered() {
        let db = Db::open_in_memory(DbOptions::default()).unwrap();
        let mut batch = WriteBatch::new();
        batch.put("a", "1").put("a", "2").delete("b");
        db.put("b", "exists").unwrap();
        db.write(batch).unwrap();
        assert_eq!(db.get("a").unwrap(), Some(b"2".to_vec()), "last op wins");
        assert_eq!(db.get("b").unwrap(), None);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let db = Db::open_in_memory(DbOptions::default()).unwrap();
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        db.put(format!("t{t}/k{i}"), format!("{i}")).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for t in 0..4 {
            assert_eq!(db.scan_prefix(format!("t{t}/")).unwrap().len(), 500);
        }
    }

    #[test]
    fn metrics_register_and_track_operations() {
        let dir = temp_dir("metrics");
        let _ = fs::remove_dir_all(&dir);
        let db = Db::open(&dir, small_options()).unwrap();
        let registry = strata_obs::Registry::new();
        db.register_metrics(&registry);
        db.put("k", "v").unwrap();
        let _ = db.get("k").unwrap();
        let _ = db.get("missing").unwrap();
        db.flush().unwrap();
        let text = registry.render();
        assert!(text.contains("kv_put_ns_count 1"), "{text}");
        assert!(text.contains("kv_get_ns_count 2"), "{text}");
        assert!(text.contains("kv_flush_ns_count 1"), "{text}");
        assert!(text.contains("kv_sstables 1"), "{text}");
        assert!(text.contains("kv_memtable_bytes 0"), "{text}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prefix_end_computation() {
        assert_eq!(prefix_end(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_end(&[0x61, 0xFF]), Some(vec![0x62]));
        assert_eq!(prefix_end(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_end(b""), None);
    }
}
