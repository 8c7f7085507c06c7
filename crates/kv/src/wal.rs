//! The write-ahead log: crash durability for the memtable.
//!
//! Every mutation is appended (and flushed) to the WAL before it is
//! applied to the memtable. On open, the WAL is replayed to rebuild
//! the memtable's state. When a memtable is flushed into an SSTable,
//! its WAL is deleted and a fresh one started.
//!
//! The WAL is a [`framed`] log; each frame body holds one operation
//! (little-endian):
//!
//! ```text
//! tag u8 (1 = put, 0 = delete) · key_len u32 · key
//!                              · [value_len u32 · value]   (puts only)
//! ```

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use strata_chaos::framed::{self, Appender};

use crate::error::{Error, Result};
use crate::options::SyncPolicy;

const TAG_DELETE: u8 = 0;
const TAG_PUT: u8 = 1;

/// Failpoint prefix for WAL I/O (`kv.wal.write`, `kv.wal.sync`).
const CHAOS_POINT: &str = "kv.wal";

/// Count of torn WAL tails truncated by [`Wal::recover`] since
/// process start (recovery observability; see also the pubsub
/// segment counter).
static TAILS_TRUNCATED: AtomicU64 = AtomicU64::new(0);

/// Times a torn WAL tail was truncated during recovery, process-wide.
#[must_use]
pub fn wal_tails_truncated() -> u64 {
    TAILS_TRUNCATED.load(Ordering::Relaxed)
}

/// One recovered WAL operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Set `key` to `value`.
    Put {
        /// The key written.
        key: Vec<u8>,
        /// The value written.
        value: Vec<u8>,
    },
    /// Delete `key`.
    Delete {
        /// The key deleted.
        key: Vec<u8>,
    },
}

/// An append-only write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    log: Appender,
}

impl Wal {
    /// Creates (or appends to) the WAL at `path`, `fsync`ing per
    /// `policy`. Creating the file also `fsync`s its directory (when
    /// the policy asks for durability at all), so the WAL itself
    /// survives a crash right after open.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn open(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self> {
        let log = Appender::open(CHAOS_POINT, path.as_ref(), policy)?;
        Ok(Wal { log })
    }

    /// Appends a put and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn log_put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.log.append(|body| {
            body.push(TAG_PUT);
            body.extend_from_slice(&(key.len() as u32).to_le_bytes());
            body.extend_from_slice(key);
            body.extend_from_slice(&(value.len() as u32).to_le_bytes());
            body.extend_from_slice(value);
        })?;
        Ok(())
    }

    /// Appends a deletion and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn log_delete(&mut self, key: &[u8]) -> Result<()> {
        self.log.append(|body| {
            body.push(TAG_DELETE);
            body.extend_from_slice(&(key.len() as u32).to_le_bytes());
            body.extend_from_slice(key);
        })?;
        Ok(())
    }

    /// Deletes the WAL file (after its memtable was flushed into an
    /// SSTable).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn remove(self) -> Result<()> {
        fs::remove_file(self.log.path())?;
        Ok(())
    }

    /// Replays the WAL at `path` *and truncates a torn tail away*, so
    /// that frames appended afterwards decode on the next replay
    /// (appending after torn bytes would strand them unreachable).
    /// Returns the operations in append order (none when the file does
    /// not exist) and the number of torn bytes dropped.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] for mid-log corruption; I/O failures.
    pub fn recover(path: &Path) -> Result<(Vec<WalOp>, u64)> {
        let recovered = framed::recover(path, true)?;
        if recovered.torn > 0 {
            TAILS_TRUNCATED.fetch_add(1, Ordering::Relaxed);
        }
        let ops = recovered
            .bodies()
            .map(Self::decode_op)
            .collect::<Result<_>>()?;
        Ok((ops, recovered.torn))
    }

    fn decode_op(body: &[u8]) -> Result<WalOp> {
        let (key, end) = length_prefixed(body, 1)?;
        let (op, end) = match body[0] {
            TAG_DELETE => (WalOp::Delete { key: key.to_vec() }, end),
            TAG_PUT => {
                let (value, end) = length_prefixed(body, end)?;
                let (key, value) = (key.to_vec(), value.to_vec());
                (WalOp::Put { key, value }, end)
            }
            other => return Err(corrupt(&format!("unknown tag {other}"))),
        };
        if end != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(op)
    }
}

fn corrupt(msg: &str) -> Error {
    Error::Corrupt(format!("wal: {msg}"))
}

/// The `len u32 · bytes` field at `at`, and the position after it.
fn length_prefixed(body: &[u8], at: usize) -> Result<(&[u8], usize)> {
    let len = body
        .get(at..at + 4)
        .ok_or_else(|| corrupt("truncated length"))?;
    let end = at + 4 + u32::from_le_bytes(len.try_into().expect("len 4")) as usize;
    let bytes = body
        .get(at + 4..end)
        .ok_or_else(|| corrupt("truncated field"))?;
    Ok((bytes, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("strata-kv-wal-{tag}-{}", std::process::id()))
    }

    #[test]
    fn replay_restores_operations_in_order() {
        let path = temp_path("order");
        let _ = fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.log_put(b"a", b"1").unwrap();
            wal.log_delete(b"a").unwrap();
            wal.log_put(b"b", b"2").unwrap();
        }
        let (ops, _) = Wal::recover(&path).unwrap();
        assert_eq!(
            ops,
            vec![
                WalOp::Put {
                    key: b"a".to_vec(),
                    value: b"1".to_vec()
                },
                WalOp::Delete { key: b"a".to_vec() },
                WalOp::Put {
                    key: b"b".to_vec(),
                    value: b"2".to_vec()
                },
            ]
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_wal_is_empty() {
        assert!(Wal::recover(Path::new("/nonexistent/wal"))
            .unwrap()
            .0
            .is_empty());
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = temp_path("torn");
        let _ = fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.log_put(b"ok", b"yes").unwrap();
            wal.log_put(b"torn", b"partial").unwrap();
        }
        // Chop bytes off the final frame to simulate a crash.
        let mut data = fs::read(&path).unwrap();
        data.truncate(data.len() - 5);
        fs::write(&path, data).unwrap();
        let (ops, torn) = Wal::recover(&path).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(torn > 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let path = temp_path("corrupt");
        let _ = fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.log_put(b"first", b"1").unwrap();
            wal.log_put(b"second", b"2").unwrap();
        }
        let mut data = fs::read(&path).unwrap();
        data[7] ^= 0xFF; // inside the first frame
        fs::write(&path, data).unwrap();
        assert!(matches!(Wal::recover(&path), Err(Error::Corrupt(_))));
        fs::remove_file(&path).unwrap();
    }

    /// Exhaustive crash-point property: truncating the log at *every*
    /// byte boundary of the final frame must recover exactly the
    /// fully written prefix — never an error, never a partial op —
    /// and the truncated log must accept appends that survive the
    /// next replay.
    #[test]
    fn recovery_at_every_byte_boundary_of_the_final_frame() {
        let path = temp_path("boundary");
        let _ = fs::remove_file(&path);
        let prefix_len = {
            let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.log_put(b"alpha", b"1").unwrap();
            wal.log_delete(b"alpha").unwrap();
            let prefix_len = fs::metadata(&path).unwrap().len() as usize;
            wal.log_put(b"gamma", b"333").unwrap();
            prefix_len
        };
        let full = fs::read(&path).unwrap();
        for cut in prefix_len..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let (ops, torn) = Wal::recover(&path).unwrap();
            if cut == full.len() {
                assert_eq!(ops.len(), 3, "intact log at cut {cut}");
                assert_eq!(torn, 0);
            } else {
                assert_eq!(ops.len(), 2, "torn tail at cut {cut}");
                assert_eq!(torn as usize, cut - prefix_len, "cut {cut}");
                assert_eq!(
                    fs::metadata(&path).unwrap().len() as usize,
                    prefix_len,
                    "file truncated back to the valid prefix at cut {cut}"
                );
            }
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.log_put(b"post", b"crash").unwrap();
            drop(wal);
            let (after, _) = Wal::recover(&path).unwrap();
            assert_eq!(
                after.last(),
                Some(&WalOp::Put {
                    key: b"post".to_vec(),
                    value: b"crash".to_vec()
                }),
                "append after recovery must be replayable (cut {cut})"
            );
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn remove_deletes_the_file() {
        let path = temp_path("remove");
        let wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        assert!(path.exists());
        wal.remove().unwrap();
        assert!(!path.exists());
    }
}
