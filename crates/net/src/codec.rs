//! Stream framing: length-prefixed, CRC-checked frames over any
//! `Read`/`Write` pair (in practice a `TcpStream`).
//!
//! The transport uses the frame format every on-disk log shares
//! ([`strata_chaos::framed`]: `body_len u32 · body · crc32(body) u32`),
//! with the body being an encoded [`Request`] or [`Response`] rather
//! than a stored record. The same CRC-32 routine guards data at rest
//! and in flight.

use std::io::{Read, Write};

use strata_chaos::framed::{self, crc32};

use crate::error::{NetError, NetResult};
use crate::protocol::{Request, Response};

/// Upper bound on a frame body, protecting both sides from a
/// corrupted (or hostile) length prefix allocating gigabytes.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Writes one frame (length, body, CRC) and flushes the stream.
///
/// # Errors
///
/// [`NetError::Io`]/[`NetError::Disconnected`] on socket failure;
/// [`NetError::Protocol`] if `body` exceeds [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> NetResult<()> {
    if body.len() > MAX_FRAME_BYTES {
        return Err(NetError::Protocol(format!(
            "frame body of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            body.len()
        )));
    }
    let mut frame = Vec::with_capacity(body.len() + 8);
    framed::encode(&mut frame, |frame| frame.extend_from_slice(body));
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame and returns its verified body.
///
/// A clean EOF *before the first length byte* is reported as
/// [`NetError::Disconnected`]; EOF mid-frame is [`NetError::Corrupt`]
/// (the peer died mid-send, the frame is unusable either way).
pub fn read_frame(r: &mut impl Read) -> NetResult<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    read_exact_or_disconnect(r, &mut len_bytes)?;
    let body_len = u32::from_le_bytes(len_bytes) as usize;
    if body_len > MAX_FRAME_BYTES {
        return Err(NetError::Corrupt(format!(
            "frame length {body_len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)
        .map_err(|err| truncated(err, "body"))?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)
        .map_err(|err| truncated(err, "checksum"))?;
    let stored_crc = u32::from_le_bytes(crc_bytes);
    let actual_crc = crc32(&body);
    if stored_crc != actual_crc {
        return Err(NetError::Corrupt(format!(
            "crc mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }
    Ok(body)
}

/// `read_exact` that maps EOF at the frame boundary to
/// [`NetError::Disconnected`] — the peer hung up between messages,
/// which is an orderly close, not corruption.
fn read_exact_or_disconnect(r: &mut impl Read, buf: &mut [u8]) -> NetResult<()> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(err) if err.kind() == std::io::ErrorKind::UnexpectedEof => Err(NetError::Disconnected),
        Err(err) => Err(err.into()),
    }
}

fn truncated(err: std::io::Error, part: &str) -> NetError {
    if err.kind() == std::io::ErrorKind::UnexpectedEof {
        NetError::Corrupt(format!("connection closed mid-frame (reading {part})"))
    } else {
        err.into()
    }
}

/// Writes an encoded request as one frame.
pub fn write_request(w: &mut impl Write, request: &Request) -> NetResult<()> {
    write_frame(w, &request.encode())
}

/// Reads and decodes one request frame.
pub fn read_request(r: &mut impl Read) -> NetResult<Request> {
    Request::decode(&read_frame(r)?)
}

/// Writes an encoded response as one frame.
pub fn write_response(w: &mut impl Write, response: &Response) -> NetResult<()> {
    write_frame(w, &response.encode())
}

/// Reads and decodes one response frame.
pub fn read_response(r: &mut impl Read) -> NetResult<Response> {
    Response::decode(&read_frame(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_through_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xFFu8; 1000]).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap(), vec![0xFFu8; 1000]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Disconnected)
        ));
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        buf[7] ^= 0x40;
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(NetError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_mid_frame_is_corrupt_not_disconnect() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        buf.truncate(buf.len() - 6);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(NetError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(NetError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_body_is_refused_at_write_time() {
        struct NullSink;
        impl std::io::Write for NullSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let body = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(matches!(
            write_frame(&mut NullSink, &body),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn request_and_response_helpers_round_trip() {
        let request = Request::Metadata {
            topics: vec!["t".into()],
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &request).unwrap();
        assert_eq!(read_request(&mut Cursor::new(&buf)).unwrap(), request);

        let response = Response::Lag(7);
        let mut buf = Vec::new();
        write_response(&mut buf, &response).unwrap();
        assert_eq!(read_response(&mut Cursor::new(&buf)).unwrap(), response);
    }
}
