//! Record bodies for file-backed partition logs.
//!
//! A segment file is a [`framed`] log holding one record per frame;
//! the frame body is (little-endian):
//!
//! ```text
//! body := offset u64 · timestamp u64
//!       · key_len u32 (u32::MAX = none) · key bytes
//!       · value_len u32 · value bytes
//!       · header_count u16 · (name_len u16 · name · value_len u32 · value)*
//! ```
//!
//! A frame failing the checksum or the body invariants is reported
//! as [`Error::Corrupt`].

use bytes::Bytes;
use strata_chaos::framed;

use crate::error::{Error, Result};
use crate::record::{Record, StoredRecord};

/// Marker for "no key" in the key-length field.
const NO_KEY: u32 = u32::MAX;

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Corrupt(format!(
                "truncated frame: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

/// Encodes one stored record into a framed byte buffer (appended to
/// `buf`). Returns the number of bytes written.
pub fn encode_frame(stored: &StoredRecord, buf: &mut Vec<u8>) -> usize {
    framed::encode(buf, |buf| encode_body(stored, buf))
}

/// Appends the frame body of `stored` to `buf`.
pub(crate) fn encode_body(stored: &StoredRecord, buf: &mut Vec<u8>) {
    put_u64(buf, stored.offset);
    put_u64(buf, stored.record.timestamp_millis);
    match &stored.record.key {
        Some(key) => {
            put_u32(buf, key.len() as u32);
            buf.extend_from_slice(key);
        }
        None => put_u32(buf, NO_KEY),
    }
    put_u32(buf, stored.record.value.len() as u32);
    buf.extend_from_slice(&stored.record.value);
    put_u16(buf, stored.record.headers.len() as u16);
    for (name, value) in &stored.record.headers {
        put_u16(buf, name.len() as u16);
        buf.extend_from_slice(name.as_bytes());
        put_u32(buf, value.len() as u32);
        buf.extend_from_slice(value);
    }
}

/// Decodes one frame from the front of `data`.
///
/// Returns the record and the total number of bytes the frame
/// occupied, so callers can advance through a segment.
///
/// # Errors
///
/// [`Error::Corrupt`] on truncation, checksum mismatch, or invalid
/// UTF-8 in a header name.
pub fn decode_frame(data: &[u8]) -> Result<(StoredRecord, usize)> {
    let (body, len) = framed::decode(data)?;
    Ok((decode_body(body)?, len))
}

/// Decodes one frame body.
pub(crate) fn decode_body(body: &[u8]) -> Result<StoredRecord> {
    let mut r = Reader::new(body);
    let offset = r.u64()?;
    let timestamp_millis = r.u64()?;
    let key_len = r.u32()?;
    let key = if key_len == NO_KEY {
        None
    } else {
        Some(Bytes::copy_from_slice(r.bytes(key_len as usize)?))
    };
    let value_len = r.u32()? as usize;
    let value = Bytes::copy_from_slice(r.bytes(value_len)?);
    let header_count = r.u16()?;
    let mut headers = Vec::with_capacity(header_count as usize);
    for _ in 0..header_count {
        let name_len = r.u16()? as usize;
        let name = std::str::from_utf8(r.bytes(name_len)?)
            .map_err(|_| Error::Corrupt("header name is not utf-8".into()))?
            .to_string();
        let hval_len = r.u32()? as usize;
        let hval = Bytes::copy_from_slice(r.bytes(hval_len)?);
        headers.push((name, hval));
    }
    if r.remaining() != 0 {
        return Err(Error::Corrupt(format!(
            "{} trailing bytes in frame body",
            r.remaining()
        )));
    }
    Ok(StoredRecord {
        offset,
        record: Record {
            key,
            value,
            timestamp_millis,
            headers,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(offset: u64) -> StoredRecord {
        StoredRecord {
            offset,
            record: Record::new(Some("job-7"), vec![1u8, 2, 3])
                .with_timestamp(123)
                .with_header("layer", vec![9u8]),
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let written = encode_frame(&sample(42), &mut buf);
        assert_eq!(written, buf.len());
        let (decoded, consumed) = decode_frame(&buf).unwrap();
        assert_eq!(consumed, written);
        assert_eq!(decoded, sample(42));
    }

    #[test]
    fn keyless_frames_round_trip() {
        let stored = StoredRecord {
            offset: 0,
            record: Record::new(None::<Bytes>, "payload"),
        };
        let mut buf = Vec::new();
        encode_frame(&stored, &mut buf);
        let (decoded, _) = decode_frame(&buf).unwrap();
        assert!(decoded.record.key.is_none());
    }

    #[test]
    fn consecutive_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        encode_frame(&sample(1), &mut buf);
        encode_frame(&sample(2), &mut buf);
        let (first, used) = decode_frame(&buf).unwrap();
        let (second, _) = decode_frame(&buf[used..]).unwrap();
        assert_eq!(first.offset, 1);
        assert_eq!(second.offset, 2);
    }

    #[test]
    fn bit_flips_are_detected() {
        let mut buf = Vec::new();
        encode_frame(&sample(1), &mut buf);
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        assert!(matches!(decode_frame(&buf), Err(Error::Corrupt(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        encode_frame(&sample(1), &mut buf);
        buf.truncate(buf.len() - 3);
        assert!(matches!(decode_frame(&buf), Err(Error::Corrupt(_))));
    }
}
