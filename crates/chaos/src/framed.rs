//! The CRC-framed append log every durable store is built on.
//!
//! One frame format, one checksum, one sync policy and one torn-tail
//! rule, shared by the kv write-ahead log, pub/sub segment files, the
//! committed-offset store and (format and checksum only) the TCP
//! transport. Each store supplies only the body codec.
//!
//! ```text
//! ┌──────────────┬───────────────┬──────────────────┐
//! │ body_len u32 │ body (…)      │ crc32(body) u32  │   little-endian
//! └──────────────┴───────────────┴──────────────────┘
//! ```
//!
//! A frame cut short by the end of the data is *torn* (a crash
//! mid-append); a complete frame whose checksum fails is *corrupt*.
//! Recovery truncates a torn final frame away when the caller allows
//! a tail, and reports everything else as corruption.

use std::fs;
use std::io;
use std::ops::Range;
use std::path::Path;

use crate::vfs::{fsync_dir, ChaosFile};

/// Computes the IEEE CRC-32 checksum of `data` (table-driven,
/// reflected polynomial `0xEDB88320`).
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// When an appended log issues an `fsync`.
///
/// Durability is exactly what the policy paid for: after a crash,
/// recovery yields every frame up to the last successful sync, and
/// possibly (but not guaranteed) frames after it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every append. An acknowledged write is durable
    /// before the call returns.
    Always,
    /// `fsync` once every `n` appends: at most `n - 1` acknowledged
    /// writes can be lost to a crash. `n` must be positive.
    EveryN(u32),
    /// Never `fsync` explicitly; the OS writes back on its own
    /// schedule. The default.
    #[default]
    Never,
}

impl SyncPolicy {
    /// Rejects `EveryN(0)`, which names no sync schedule. Every store
    /// applies this check when it is configured.
    ///
    /// # Errors
    ///
    /// A message for the store's invalid-configuration error.
    pub fn check(self) -> Result<(), String> {
        if self == SyncPolicy::EveryN(0) {
            return Err("SyncPolicy::EveryN requires n > 0".into());
        }
        Ok(())
    }
}

/// Why a frame or a framed log failed to decode.
#[derive(Debug)]
pub enum FrameError {
    /// The data ran out mid-frame: a torn tail.
    Torn,
    /// A complete frame failed its checksum, or a torn frame sat
    /// where no tail is allowed.
    Corrupt(String),
    /// Reading or truncating the file failed.
    Io(io::Error),
}

impl From<io::Error> for FrameError {
    fn from(err: io::Error) -> Self {
        FrameError::Io(err)
    }
}

/// Appends one frame to `buf`, letting `body` write the body in place
/// (no intermediate copy). Returns the frame's total length.
pub fn encode(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    body(buf);
    let body_len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&buf[start + 4..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.len() - start
}

/// Decodes the frame at the front of `data`, returning its verified
/// body and the frame's total length.
///
/// # Errors
///
/// [`FrameError::Torn`] when `data` ends before the frame does;
/// [`FrameError::Corrupt`] when a complete frame fails its checksum.
pub fn decode(data: &[u8]) -> Result<(&[u8], usize), FrameError> {
    let Some(len_bytes) = data.get(..4) else {
        return Err(FrameError::Torn);
    };
    let body_len = u32::from_le_bytes(len_bytes.try_into().expect("len 4")) as usize;
    let Some(crc_bytes) = data.get(4 + body_len..8 + body_len) else {
        return Err(FrameError::Torn);
    };
    let body = &data[4..4 + body_len];
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("len 4"));
    let computed = crc32(body);
    if stored != computed {
        return Err(FrameError::Corrupt(format!(
            "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    Ok((body, 8 + body_len))
}

/// A framed log file as recovery left it.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The file's bytes, torn tail excluded.
    pub data: Vec<u8>,
    /// Byte range of every whole frame, in file order.
    pub frames: Vec<Range<usize>>,
    /// Torn bytes truncated off the tail (0 when there were none).
    pub torn: u64,
}

impl Recovered {
    /// The body of every whole frame, in file order.
    pub fn bodies(&self) -> impl Iterator<Item = &[u8]> {
        self.frames
            .iter()
            .map(|frame| &self.data[frame.start + 4..frame.end - 4])
    }
}

/// Scans the framed log at `path` (a missing file is empty). With
/// `allow_tail`, a torn final frame is truncated off the file
/// (`set_len` + `sync_data`), so later appends land where the next
/// recovery finds them; without it, a torn frame is corruption.
///
/// # Errors
///
/// [`FrameError::Corrupt`] for a bad checksum anywhere, or a torn
/// frame when no tail is allowed; [`FrameError::Io`] otherwise.
pub fn recover(path: &Path, allow_tail: bool) -> Result<Recovered, FrameError> {
    let mut data = match fs::read(path) {
        Ok(data) => data,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Recovered::default()),
        Err(err) => return Err(err.into()),
    };
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        match decode(&data[pos..]) {
            Ok((_, len)) => {
                frames.push(pos..pos + len);
                pos += len;
            }
            Err(FrameError::Torn) if allow_tail => break,
            Err(FrameError::Corrupt(msg)) => {
                return Err(FrameError::Corrupt(format!("{path:?}: byte {pos}: {msg}")))
            }
            Err(_) => {
                return Err(FrameError::Corrupt(format!(
                    "{path:?}: torn frame at byte {pos}"
                )))
            }
        }
    }
    let torn = (data.len() - pos) as u64;
    if torn > 0 {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(pos as u64)?;
        file.sync_data()?;
        data.truncate(pos);
    }
    Ok(Recovered { data, frames, torn })
}

/// Appends frames to one log file, `fsync`ing per its [`SyncPolicy`].
#[derive(Debug)]
pub struct Appender {
    file: ChaosFile,
    policy: SyncPolicy,
    /// Appends since the last sync (for `EveryN`).
    unsynced: u32,
    frame: Vec<u8>,
}

impl Appender {
    /// Opens (or creates, with its directory) the log at `path` for
    /// appending, with failpoints `"<point>.write"` and
    /// `"<point>.sync"`. Creating the file also `fsync`s its directory,
    /// unless the policy is [`SyncPolicy::Never`], so the log survives
    /// a crash right after.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn open(point: &str, path: &Path, policy: SyncPolicy) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let created = !path.exists();
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if created && policy != SyncPolicy::Never {
            if let Some(parent) = path.parent() {
                fsync_dir(parent)?;
            }
        }
        Ok(Appender {
            file: ChaosFile::new(point, path, file)?,
            policy,
            unsynced: 0,
            frame: Vec::new(),
        })
    }

    /// The path this log appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// Appends one frame whose body `body` writes, then syncs per
    /// policy. Returns the frame's length.
    ///
    /// # Errors
    ///
    /// Injected faults and real I/O failures; the append is not
    /// acknowledged, and a partial frame it left is a torn tail.
    pub fn append(&mut self, body: impl FnOnce(&mut Vec<u8>)) -> io::Result<usize> {
        self.frame.clear();
        let len = encode(&mut self.frame, body);
        self.file.write_all(&self.frame)?;
        self.file.flush()?;
        match self.policy {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(len)
    }

    /// Syncs the appends an [`SyncPolicy::EveryN`] countdown has left
    /// unsynced, if any. Call it before abandoning the file for a
    /// successor, or those acknowledged appends stay volatile.
    ///
    /// # Errors
    ///
    /// Injected faults and real I/O failures.
    pub fn sync_pending(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces an `fsync` now, regardless of policy.
    ///
    /// # Errors
    ///
    /// Injected faults and real I/O failures.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("strata-chaos-framed-{tag}-{}", std::process::id()))
    }

    fn write_log(path: &Path, bodies: &[Vec<u8>]) -> Vec<usize> {
        let _ = fs::remove_file(path);
        let mut log = Appender::open("framed.test", path, SyncPolicy::Never).unwrap();
        bodies
            .iter()
            .map(|body| log.append(|buf| buf.extend_from_slice(body)).unwrap())
            .collect()
    }

    fn recovered_bodies(recovered: &Recovered) -> Vec<Vec<u8>> {
        recovered.bodies().map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_is_order_sensitive() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }

    #[test]
    fn decode_tells_torn_from_corrupt() {
        let mut buf = Vec::new();
        let len = encode(&mut buf, |b| b.extend_from_slice(b"payload"));
        assert_eq!(len, buf.len());
        assert_eq!(decode(&buf).unwrap(), (&b"payload"[..], len));
        for cut in 0..len {
            assert!(matches!(decode(&buf[..cut]), Err(FrameError::Torn)));
        }
        buf[5] ^= 0x40;
        assert!(matches!(decode(&buf), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn sync_policy_rejects_every_zero() {
        assert!(SyncPolicy::EveryN(0).check().is_err());
        for ok in [SyncPolicy::Always, SyncPolicy::EveryN(1), SyncPolicy::Never] {
            assert!(ok.check().is_ok());
        }
    }

    #[test]
    fn every_n_policy_counts_down_to_a_sync() {
        let path = temp_path("everyn");
        let _ = fs::remove_file(&path);
        let mut log = Appender::open("framed.test", &path, SyncPolicy::EveryN(3)).unwrap();
        for i in 0..7u8 {
            log.append(|buf| buf.push(i)).unwrap();
        }
        // 7 appends under EveryN(3): synced at 3 and 6, one pending.
        assert_eq!(log.unsynced, 1);
        log.sync().unwrap();
        assert_eq!(log.unsynced, 0);
        drop(log);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_log_recovers_empty() {
        let recovered = recover(Path::new("/nonexistent/framed.log"), true).unwrap();
        assert!(recovered.frames.is_empty());
        assert_eq!(recovered.torn, 0);
    }

    fn bodies_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..6)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A cut at every byte boundary of the final frame recovers
        /// exactly the whole-frame prefix, truncates the file to it,
        /// and leaves a log whose next append replays.
        #[test]
        fn torn_final_frame_recovers_the_whole_frame_prefix(
            bodies in bodies_strategy(),
            case in 0u32..1_000_000,
        ) {
            let path = temp_path(&format!("torn-{case}"));
            let lens = write_log(&path, &bodies);
            let full = fs::read(&path).unwrap();
            let prefix = full.len() - lens.last().unwrap();
            for cut in prefix..=full.len() {
                fs::write(&path, &full[..cut]).unwrap();
                let recovered = recover(&path, true).unwrap();
                let whole = if cut == full.len() { bodies.len() } else { bodies.len() - 1 };
                prop_assert_eq!(recovered_bodies(&recovered), bodies[..whole].to_vec());
                prop_assert_eq!(recovered.torn as usize, if cut == full.len() { 0 } else { cut - prefix });
                let kept = if cut == full.len() { full.len() } else { prefix };
                prop_assert_eq!(fs::metadata(&path).unwrap().len() as usize, kept);

                let mut log = Appender::open("framed.test", &path, SyncPolicy::Never).unwrap();
                log.append(|buf| buf.extend_from_slice(b"post-crash")).unwrap();
                drop(log);
                let after = recover(&path, true).unwrap();
                prop_assert_eq!(after.torn, 0);
                prop_assert_eq!(after.bodies().last(), Some(&b"post-crash"[..]));
            }
            fs::remove_file(&path).unwrap();
        }

        /// A bit flip in any frame but the last is corruption, tail
        /// allowed or not.
        #[test]
        fn mid_log_corruption_is_corrupt(
            bodies in bodies_strategy(),
            extra in proptest::collection::vec(any::<u8>(), 0..24),
            pick in 0usize..1000,
            bit in 0u8..8,
            case in 0u32..1_000_000,
        ) {
            let path = temp_path(&format!("corrupt-{case}"));
            let mut bodies = bodies;
            bodies.push(extra);
            write_log(&path, &bodies);
            let frames = recover(&path, true).unwrap().frames;
            let victim = &frames[pick % (frames.len() - 1)];
            // Flip a body or checksum bit: the length prefix stays
            // intact, so the frame is still complete.
            let at = victim.start + 4 + pick % (victim.len() - 4);
            let mut data = fs::read(&path).unwrap();
            data[at] ^= 1 << bit;
            fs::write(&path, &data).unwrap();
            for allow_tail in [true, false] {
                let result = recover(&path, allow_tail);
                prop_assert!(matches!(result, Err(FrameError::Corrupt(_))));
            }
            prop_assert_eq!(fs::read(&path).unwrap(), data, "a failed recovery leaves the file alone");
            fs::remove_file(&path).unwrap();
        }

        /// Where no tail is allowed, a torn final frame is corruption
        /// and the file is left as it was.
        #[test]
        fn torn_tail_is_corrupt_where_no_tail_is_allowed(
            bodies in bodies_strategy(),
            cut_back in 1usize..1000,
            case in 0u32..1_000_000,
        ) {
            let path = temp_path(&format!("notail-{case}"));
            let lens = write_log(&path, &bodies);
            let full = fs::read(&path).unwrap();
            let cut = full.len() - 1 - cut_back % (lens.last().unwrap() - 1);
            fs::write(&path, &full[..cut]).unwrap();
            prop_assert!(matches!(recover(&path, false), Err(FrameError::Corrupt(_))));
            prop_assert_eq!(fs::metadata(&path).unwrap().len() as usize, cut);
            fs::remove_file(&path).unwrap();
        }
    }
}
