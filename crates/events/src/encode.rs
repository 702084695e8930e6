//! Compact binary encoding for access events.
//!
//! The paper's collector ships events over asynchronous intra-process
//! communication to avoid file I/O and unbounded in-memory logs (§IV).
//! This module is the codec for the event bodies of persisted captures
//! (`dsspy-collect::persist`), which dominate a capture's size.
//!
//! Version 2 (written): each field is stored as a LEB128 varint, as the
//! difference from the same field of the previous event in the batch
//! (all "previous" values start at 0). `seq` and `nanos` are near-monotone
//! and positions move in small steps, so most fields take one byte.
//!
//! ```text
//! batch   := count:varint event*
//! event   := head:u8 (= kind << 2 | tag)
//!            seq_delta:varint          (wrapping, unsigned)
//!            nanos_delta:zigzag        (wrapping)
//!            thread:varint
//!            len_delta:zigzag          (wrapping)
//!            target
//! target  := pos_delta:zigzag                    (tag 0, Index)
//!          | pos_delta:zigzag span:varint        (tag 1, Range; span = end − start)
//!          | ε                                   (tag 2 Whole, tag 3 None)
//! ```
//!
//! `pos` is the index of the last `Index` or the start of the last `Range`.
//! Every delta wraps, so any `u64`/`u32` value round-trips, including
//! non-monotone sequences. A varint is at most 10 bytes; a longer one, or
//! one whose value does not fit its field, is an error.
//!
//! Version 1 (read-only, for captures already on disk) is fixed-width
//! little-endian:
//!
//! ```text
//! batch   := count:u32 event*
//! event   := seq:u64 nanos:u64 kind:u8 thread:u32 len:u32 target
//! target  := 0x00 idx:u32 | 0x01 start:u32 end:u32 | 0x02 | 0x03
//! ```

use crate::event::{AccessEvent, AccessKind, Target, ThreadTag};

/// Fewest bytes one version-2 event can take: the head byte plus one byte
/// each for seq, nanos, thread and len. Bounds any count-based
/// preallocation by the bytes actually present.
pub const MIN_EVENT_BYTES: usize = 5;

/// Fewest bytes one version-1 event can take (a `Whole` or `None` target).
const MIN_EVENT_BYTES_V1: usize = 26;

/// Most bytes one version-2 event can take.
const MAX_EVENT_BYTES: usize = 1 + 10 + 10 + 5 + 5 + 5 + 5;

/// Error produced when decoding malformed event bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended in the middle of an event, or holds fewer bytes
    /// than its event count needs.
    Truncated,
    /// An unknown [`AccessKind`] discriminant was encountered.
    BadKind(u8),
    /// An unknown target tag was encountered (version 1).
    BadTarget(u8),
    /// A varint was longer than 10 bytes or too large for its field.
    BadVarint,
    /// Bytes were left over after the batch's last event.
    Trailing(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "event buffer truncated"),
            DecodeError::BadKind(k) => write!(f, "unknown access kind discriminant {k}"),
            DecodeError::BadTarget(t) => write!(f, "unknown target tag {t}"),
            DecodeError::BadVarint => write!(f, "overlong or out-of-range varint"),
            DecodeError::Trailing(n) => write!(f, "{n} bytes after the last event"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The previous event's fields, which the next event is stored against.
#[derive(Default)]
struct Prev {
    seq: u64,
    nanos: u64,
    len: u32,
    pos: u32,
}

fn zigzag64(d: u64) -> u64 {
    let d = d as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag64(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

fn zigzag32(d: u32) -> u32 {
    let d = d as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

fn unzigzag32(z: u32) -> u32 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Write `v` as a varint at `buf[*n..]`, advancing `*n`.
#[inline]
fn put_varint(buf: &mut [u8], n: &mut usize, mut v: u64) {
    while v >= 0x80 {
        buf[*n] = v as u8 | 0x80;
        *n += 1;
        v >>= 7;
    }
    buf[*n] = v as u8;
    *n += 1;
}

/// Append what `fill` writes to `out`: it gets a zeroed window of `max`
/// bytes and returns how many it used.
fn append(out: &mut Vec<u8>, max: usize, fill: impl FnOnce(&mut [u8]) -> usize) {
    let start = out.len();
    out.resize(start + max, 0);
    let used = fill(&mut out[start..]);
    out.truncate(start + used);
}

/// Append `events` to `out` as one version-2 batch.
pub fn encode_batch(events: &[AccessEvent], out: &mut Vec<u8>) {
    append(out, 10, |buf| {
        let mut n = 0;
        put_varint(buf, &mut n, events.len() as u64);
        n
    });
    let mut prev = Prev::default();
    // A worst-case window per chunk, rather than per event, keeps the
    // per-event work to plain stores.
    for chunk in events.chunks(512) {
        append(out, chunk.len() * MAX_EVENT_BYTES, |buf| {
            let mut n = 0;
            for e in chunk {
                let (tag, pos, span) = match e.target {
                    Target::Index(i) => (0, Some(i), None),
                    Target::Range { start, end } => (1, Some(start), Some(end.wrapping_sub(start))),
                    Target::Whole => (2, None, None),
                    Target::None => (3, None, None),
                };
                buf[n] = (e.kind as u8) << 2 | tag;
                n += 1;
                put_varint(buf, &mut n, e.seq.wrapping_sub(prev.seq));
                put_varint(buf, &mut n, zigzag64(e.nanos.wrapping_sub(prev.nanos)));
                put_varint(buf, &mut n, u64::from(e.thread.0));
                let len_delta = zigzag32(e.len.wrapping_sub(prev.len));
                put_varint(buf, &mut n, u64::from(len_delta));
                if let Some(pos) = pos {
                    put_varint(buf, &mut n, u64::from(zigzag32(pos.wrapping_sub(prev.pos))));
                    prev.pos = pos;
                }
                if let Some(span) = span {
                    put_varint(buf, &mut n, u64::from(span));
                }
                prev.seq = e.seq;
                prev.nanos = e.nanos;
                prev.len = e.len;
            }
            n
        });
    }
}

/// A read position in a borrowed byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline]
    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let raw = self
            .bytes
            .get(self.pos..self.pos + N)
            .ok_or(DecodeError::Truncated)?;
        self.pos += N;
        Ok(raw.try_into().expect("slice of length N"))
    }

    fn u32_le(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64_le(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, DecodeError> {
        let b = self.byte()?;
        if b < 0x80 {
            return Ok(u64::from(b));
        }
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7;
        loop {
            let b = self.byte()?;
            // The 10th byte holds bit 63 only; anything more is overlong.
            if shift == 63 && b > 1 {
                return Err(DecodeError::BadVarint);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    #[inline]
    fn varint_u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.varint()?).map_err(|_| DecodeError::BadVarint)
    }

    /// `Err` unless every byte was consumed.
    fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

/// Room for `count` events of at least `min_bytes` each in what is left of
/// `c`, or `Truncated` before anything is allocated.
fn checked_capacity(c: &Cursor, count: u64, min_bytes: usize) -> Result<usize, DecodeError> {
    let room = (c.remaining() / min_bytes) as u64;
    if count > room {
        return Err(DecodeError::Truncated);
    }
    Ok(count as usize)
}

/// Decode one version-2 batch, which must fill `bytes` exactly.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<AccessEvent>, DecodeError> {
    let mut c = Cursor { bytes, pos: 0 };
    let count = c.varint()?;
    let mut out = Vec::with_capacity(checked_capacity(&c, count, MIN_EVENT_BYTES)?);
    let mut prev = Prev::default();
    for _ in 0..count {
        let head = c.byte()?;
        let kind = AccessKind::from_u8(head >> 2).ok_or(DecodeError::BadKind(head >> 2))?;
        let seq = prev.seq.wrapping_add(c.varint()?);
        let nanos = prev.nanos.wrapping_add(unzigzag64(c.varint()?));
        let thread = ThreadTag(c.varint_u32()?);
        let len = prev.len.wrapping_add(unzigzag32(c.varint_u32()?));
        let target = match head & 3 {
            0 => {
                prev.pos = prev.pos.wrapping_add(unzigzag32(c.varint_u32()?));
                Target::Index(prev.pos)
            }
            1 => {
                prev.pos = prev.pos.wrapping_add(unzigzag32(c.varint_u32()?));
                let end = prev.pos.wrapping_add(c.varint_u32()?);
                Target::Range {
                    start: prev.pos,
                    end,
                }
            }
            2 => Target::Whole,
            _ => Target::None,
        };
        out.push(AccessEvent {
            seq,
            nanos,
            kind,
            target,
            len,
            thread,
        });
        prev.seq = seq;
        prev.nanos = nanos;
        prev.len = len;
    }
    c.finish()?;
    Ok(out)
}

/// Decode one version-1 batch, which must fill `bytes` exactly.
pub fn decode_batch_v1(bytes: &[u8]) -> Result<Vec<AccessEvent>, DecodeError> {
    let mut c = Cursor { bytes, pos: 0 };
    let count = c.u32_le()?;
    let mut out = Vec::with_capacity(checked_capacity(&c, u64::from(count), MIN_EVENT_BYTES_V1)?);
    for _ in 0..count {
        let seq = c.u64_le()?;
        let nanos = c.u64_le()?;
        let kind_raw = c.byte()?;
        let kind = AccessKind::from_u8(kind_raw).ok_or(DecodeError::BadKind(kind_raw))?;
        let thread = ThreadTag(c.u32_le()?);
        let len = c.u32_le()?;
        let target = match c.byte()? {
            0 => Target::Index(c.u32_le()?),
            1 => Target::Range {
                start: c.u32_le()?,
                end: c.u32_le()?,
            },
            2 => Target::Whole,
            3 => Target::None,
            t => return Err(DecodeError::BadTarget(t)),
        };
        out.push(AccessEvent {
            seq,
            nanos,
            kind,
            target,
            len,
            thread,
        });
    }
    c.finish()?;
    Ok(out)
}

/// 64-bit checksum of `bytes`, a little-endian word at a time. Each step
/// (xor the word in, multiply by an odd constant, rotate) is a bijection
/// of the running state, so changing any one word — in particular any
/// single bit — always changes the result.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(29);
    let mut words = bytes.chunks_exact(8);
    let mut h = step(0, bytes.len() as u64);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<AccessEvent> {
        vec![
            AccessEvent {
                seq: 0,
                nanos: 100,
                kind: AccessKind::Insert,
                target: Target::Index(0),
                len: 1,
                thread: ThreadTag(0),
            },
            AccessEvent {
                seq: 1,
                nanos: 250,
                kind: AccessKind::Search,
                target: Target::Range { start: 0, end: 17 },
                len: 40,
                thread: ThreadTag(3),
            },
            AccessEvent {
                seq: u64::MAX,
                nanos: u64::MAX,
                kind: AccessKind::Clear,
                target: Target::Whole,
                len: u32::MAX,
                thread: ThreadTag(u32::MAX),
            },
            AccessEvent {
                seq: 2,
                nanos: 0,
                kind: AccessKind::Search,
                target: Target::None,
                len: 0,
                thread: ThreadTag(1),
            },
            AccessEvent {
                seq: 3,
                nanos: 7,
                kind: AccessKind::Copy,
                target: Target::Range {
                    start: u32::MAX,
                    end: 2,
                },
                len: 9,
                thread: ThreadTag(1),
            },
        ]
    }

    fn encoded(events: &[AccessEvent]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_batch(events, &mut buf);
        buf
    }

    #[test]
    fn batch_roundtrip() {
        let events = sample_events();
        assert_eq!(decode_batch(&encoded(&events)).unwrap(), events);
        for e in events {
            assert_eq!(decode_batch(&encoded(&[e])).unwrap(), vec![e]);
        }
    }

    #[test]
    fn empty_batch_roundtrip() {
        assert_eq!(encoded(&[]), vec![0]);
        assert_eq!(decode_batch(&[0]).unwrap(), vec![]);
    }

    #[test]
    fn near_monotone_events_take_few_bytes() {
        let events: Vec<AccessEvent> = (0..1000u32)
            .map(|i| AccessEvent {
                seq: u64::from(i),
                nanos: 40 * u64::from(i),
                kind: AccessKind::Insert,
                target: Target::Index(i),
                len: i + 1,
                thread: ThreadTag(0),
            })
            .collect();
        let bytes = encoded(&events);
        assert_eq!(bytes.len(), 2 + 1000 * 6);
        assert_eq!(decode_batch(&bytes).unwrap(), events);
    }

    #[test]
    fn truncated_buffer_is_an_error() {
        let bytes = encoded(&sample_events());
        for cut in 0..bytes.len() {
            assert!(decode_batch(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = encoded(&sample_events());
        bytes.push(0);
        assert_eq!(decode_batch(&bytes), Err(DecodeError::Trailing(1)));
    }

    #[test]
    fn bad_kind_is_an_error() {
        let mut bytes = encoded(&sample_events()[..1]);
        bytes[1] = 60 << 2; // head byte of the first event
        assert_eq!(decode_batch(&bytes), Err(DecodeError::BadKind(60)));
    }

    #[test]
    fn inflated_count_fails_before_allocating() {
        // u32::MAX events claimed by a 10-byte body.
        let mut bytes = vec![0xff, 0xff, 0xff, 0xff, 0x0f];
        bytes.extend_from_slice(&[0; 5]);
        assert_eq!(decode_batch(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn overlong_varints_are_errors() {
        // 11 bytes: ten continuation bytes, then a terminator.
        let mut bytes = vec![0x80; 10];
        bytes.push(0);
        assert_eq!(decode_batch(&bytes), Err(DecodeError::BadVarint));
        // 10 bytes whose last one carries more than bit 63.
        let mut bytes = vec![0xff; 9];
        bytes.push(0x02);
        assert_eq!(decode_batch(&bytes), Err(DecodeError::BadVarint));
        // A thread id past u32::MAX.
        let bytes = [1, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0];
        assert_eq!(decode_batch(&bytes), Err(DecodeError::BadVarint));
    }

    #[test]
    fn version_1_batches_decode() {
        let e = sample_events()[1];
        let mut bytes = 1u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&e.seq.to_le_bytes());
        bytes.extend_from_slice(&e.nanos.to_le_bytes());
        bytes.push(e.kind as u8);
        bytes.extend_from_slice(&e.thread.0.to_le_bytes());
        bytes.extend_from_slice(&e.len.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&17u32.to_le_bytes());
        assert_eq!(decode_batch_v1(&bytes).unwrap(), vec![e]);
        for cut in 0..bytes.len() {
            assert!(decode_batch_v1(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        bytes[4 + 25] = 9; // target tag
        assert_eq!(decode_batch_v1(&bytes), Err(DecodeError::BadTarget(9)));
    }

    #[test]
    fn checksum_sees_every_single_bit_flip() {
        let bytes = encoded(&sample_events());
        let sum = checksum(&bytes);
        for i in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(checksum(&flipped), sum, "bit {i}");
        }
        assert_ne!(checksum(&bytes[..bytes.len() - 1]), sum);
    }
}
