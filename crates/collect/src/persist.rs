//! Capture persistence: save a profiling session to disk and load it back.
//!
//! The paper's pipeline is two-phase — collect at runtime, analyze
//! post-mortem (§IV) — which implies captures are artifacts worth keeping:
//! re-analysis with different thresholds, report diffing across refactors,
//! and sharing profiles all need a durable form.
//!
//! Format (version-tagged, little-endian):
//!
//! ```text
//! file    := magic:"DSSPYCAP" version:u32 header body*
//! header  := frame(json(CaptureHeader))
//! body    := frame(event batch)          one per instance, in header order
//! frame   := len:u64 sum:u64 bytes       (version 2, written)
//!          | len:u64 bytes               (version 1, read-only)
//! ```
//!
//! The header (instances, stats, session duration) is JSON for
//! debuggability; the event bodies use the compact codec of
//! `dsspy_events::encode` because they dominate the size — delta-varint
//! batches in version 2, fixed-width ones in version 1. In version 2,
//! `sum` is `dsspy_events::encode::checksum` of the frame's bytes, so a
//! corrupted header or body is reported instead of decoded into plausible
//! wrong events. The version field selects the decoder; nothing writes
//! version 1 any more.
//!
//! The reader takes the rest of the stream into one buffer (it grows with
//! the bytes that arrive, never with a length the file claims), frames the
//! bodies as slices of it and decodes them in place. Bytes after the last
//! body are an error.

use std::io::{self, Read, Write};
use std::path::Path;

use dsspy_events::encode::{checksum, decode_batch, decode_batch_v1, encode_batch};
use dsspy_events::{InstanceInfo, RuntimeProfile};
use dsspy_telemetry::{overhead::signals, Telemetry, TelemetrySnapshot};
use serde::{Deserialize, Serialize};

use crate::collector::{Capture, CollectorStats};

const MAGIC: &[u8; 8] = b"DSSPYCAP";
const VERSION: u32 = 2;

/// JSON header of a persisted capture.
#[derive(Serialize, Deserialize)]
struct CaptureHeader {
    instances: Vec<InstanceInfo>,
    stats: CollectorStats,
    session_nanos: u64,
    event_counts: Vec<u64>,
    /// Collection-time telemetry (collector histograms, queue pressure,
    /// encode volume) recorded by an observed session — `None` for captures
    /// from unobserved sessions and for files written before this field
    /// existed (`default` keeps older headers readable).
    #[serde(default)]
    telemetry: Option<TelemetrySnapshot>,
}

/// Errors from loading a persisted capture.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the DSspy capture magic.
    BadMagic,
    /// The file's format version is not supported.
    BadVersion(u32),
    /// The JSON header failed to parse.
    BadHeader(String),
    /// An event body was corrupt.
    BadBody(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a DSspy capture file"),
            PersistError::BadVersion(v) => write!(f, "unsupported capture version {v}"),
            PersistError::BadHeader(e) => write!(f, "corrupt capture header: {e}"),
            PersistError::BadBody(e) => write!(f, "corrupt event body: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Serialize a capture into a writer.
///
/// ```
/// use dsspy_collect::{read_capture, write_capture, Session};
///
/// let capture = Session::new().finish();
/// let mut buf = Vec::new();
/// write_capture(&capture, &mut buf).unwrap();
/// let back = read_capture(buf.as_slice()).unwrap();
/// assert_eq!(back.instance_count(), 0);
/// ```
pub fn write_capture(capture: &Capture, w: impl Write) -> Result<(), PersistError> {
    write_capture_with(capture, w, &Telemetry::disabled())
}

/// [`write_capture`] that also reports encode volume and time: counters
/// `persist.encode_bytes`, `persist.bodies_encoded`, and the
/// `persist.encode_nanos` signal the overhead accountant charges to
/// profiling.
pub fn write_capture_with(
    capture: &Capture,
    mut w: impl Write,
    telemetry: &Telemetry,
) -> Result<(), PersistError> {
    let start_nanos = telemetry.now_nanos();
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let header = CaptureHeader {
        instances: capture
            .profiles
            .iter()
            .map(|p| p.instance.clone())
            .collect(),
        stats: capture.stats,
        session_nanos: capture.session_nanos,
        event_counts: capture.profiles.iter().map(|p| p.len() as u64).collect(),
        telemetry: capture.collection_telemetry.clone(),
    };
    let header_json =
        serde_json::to_vec(&header).map_err(|e| PersistError::BadHeader(e.to_string()))?;
    let mut written = (MAGIC.len() + 4) as u64;
    written += write_frame(&mut w, &header_json)?;
    // One buffer, reused for every body.
    let mut body = Vec::new();
    for profile in &capture.profiles {
        body.clear();
        encode_batch(&profile.events, &mut body);
        written += write_frame(&mut w, &body)?;
    }
    if telemetry.is_enabled() {
        telemetry.counter("persist.encode_bytes").add(written);
        telemetry
            .counter("persist.bodies_encoded")
            .add(capture.profiles.len() as u64);
        telemetry
            .counter(signals::PERSIST_ENCODE)
            .add(telemetry.now_nanos().saturating_sub(start_nanos));
    }
    Ok(())
}

/// Write one version-2 frame; returns the bytes written.
fn write_frame(w: &mut impl Write, bytes: &[u8]) -> io::Result<u64> {
    w.write_all(&(bytes.len() as u64).to_le_bytes())?;
    w.write_all(&checksum(bytes).to_le_bytes())?;
    w.write_all(bytes)?;
    Ok(16 + bytes.len() as u64)
}

/// How [`read_capture_with`] / [`load_capture_with`] should behave.
#[derive(Clone, Debug)]
pub struct ReadOptions {
    /// Worker threads for decoding event bodies. `1` (the default) decodes
    /// inline; more threads fan the per-instance bodies out over
    /// `dsspy_parallel::par_map`, which pays off once captures carry many
    /// instances with large event lists. `0` means one worker per core.
    pub threads: usize,
    /// Where to report decode volume and per-body decode time.
    pub telemetry: Telemetry,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            threads: 1,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Deserialize a capture from a reader (sequential, unobserved).
pub fn read_capture(r: impl Read) -> Result<Capture, PersistError> {
    read_capture_with(r, &ReadOptions::default())
}

/// Deserialize a capture from a reader, optionally decoding event bodies in
/// parallel and reporting into telemetry.
///
/// The stream is read once, to its end; body decode — the CPU-bound part —
/// fans out over `opts.threads`. Profiles come back in header order
/// regardless of thread count.
pub fn read_capture_with(mut r: impl Read, opts: &ReadOptions) -> Result<Capture, PersistError> {
    let telemetry = &opts.telemetry;
    let start_nanos = telemetry.now_nanos();
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let mut v4 = [0u8; 4];
    r.read_exact(&mut v4)?;
    let version = u32::from_le_bytes(v4);
    if version != VERSION && version != 1 {
        return Err(PersistError::BadVersion(version));
    }
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    let mut frames = Frames {
        data: &data,
        checked: version == VERSION,
    };

    let (header_json, sum) = frames.next()?;
    if sum.is_some_and(|sum| sum != checksum(header_json)) {
        return Err(PersistError::BadHeader("checksum mismatch".into()));
    }
    let header: CaptureHeader =
        serde_json::from_slice(header_json).map_err(|e| PersistError::BadHeader(e.to_string()))?;
    if header.event_counts.len() != header.instances.len() {
        return Err(PersistError::BadHeader(format!(
            "{} event counts for {} instances",
            header.event_counts.len(),
            header.instances.len()
        )));
    }
    let mut bodies = Vec::with_capacity(header.instances.len());
    for (info, &expect) in header.instances.iter().zip(&header.event_counts) {
        let (body, sum) = frames.next()?;
        bodies.push((info, expect, body, sum));
    }
    if !frames.data.is_empty() {
        return Err(PersistError::BadBody(format!(
            "{} bytes after the last body",
            frames.data.len()
        )));
    }

    // Decode the bodies in place, preserving header order. Each body's
    // decode time lands in a histogram so skewed instances show up.
    let body_decode = telemetry.histogram("persist.body_decode_nanos");
    let decode = if version == VERSION {
        decode_batch
    } else {
        decode_batch_v1
    };
    let bad_body = |info: &InstanceInfo, e: &dyn std::fmt::Display| {
        PersistError::BadBody(format!("instance {}: {e}", info.id))
    };
    let decode_one = |&(info, expect, body, sum): &(&InstanceInfo, u64, &[u8], Option<u64>)| {
        let body_start = telemetry.now_nanos();
        if sum.is_some_and(|sum| sum != checksum(body)) {
            return Err(bad_body(info, &"checksum mismatch"));
        }
        let events = decode(body).map_err(|e| bad_body(info, &e))?;
        if events.len() as u64 != expect {
            return Err(bad_body(
                info,
                &format!("expected {expect} events, body has {}", events.len()),
            ));
        }
        if telemetry.is_enabled() {
            body_decode.record(telemetry.now_nanos().saturating_sub(body_start));
        }
        Ok(RuntimeProfile::new(info.clone(), events))
    };
    let threads = if opts.threads == 0 {
        dsspy_parallel::default_threads()
    } else {
        opts.threads
    };
    let profiles: Vec<RuntimeProfile> = dsspy_parallel::par_map(&bodies, threads, decode_one)
        .into_iter()
        .collect::<Result<_, _>>()?;

    if telemetry.is_enabled() {
        telemetry
            .counter("persist.decode_bytes")
            .add((MAGIC.len() + 4 + data.len()) as u64);
        telemetry
            .counter("persist.bodies_decoded")
            .add(profiles.len() as u64);
        telemetry
            .counter(signals::PERSIST_DECODE)
            .add(telemetry.now_nanos().saturating_sub(start_nanos));
    }
    let mut capture = Capture::new(profiles, header.stats, header.session_nanos);
    capture.collection_telemetry = header.telemetry;
    Ok(capture)
}

/// The length-prefixed frames still unread in a capture's bytes.
struct Frames<'a> {
    data: &'a [u8],
    /// Whether each frame carries a checksum (version 2).
    checked: bool,
}

impl<'a> Frames<'a> {
    /// The next frame's bytes and, in version 2, its stored checksum.
    fn next(&mut self) -> Result<(&'a [u8], Option<u64>), PersistError> {
        let len = self.u64()?;
        let sum = if self.checked {
            Some(self.u64()?)
        } else {
            None
        };
        if len > self.data.len() as u64 {
            return Err(truncated());
        }
        let (bytes, rest) = self.data.split_at(len as usize);
        self.data = rest;
        Ok((bytes, sum))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let (word, rest) = self.data.split_first_chunk::<8>().ok_or_else(truncated)?;
        self.data = rest;
        Ok(u64::from_le_bytes(*word))
    }
}

fn truncated() -> PersistError {
    PersistError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "truncated capture",
    ))
}

/// Save a capture to a file.
pub fn save_capture(capture: &Capture, path: impl AsRef<Path>) -> Result<(), PersistError> {
    save_capture_with(capture, path, &Telemetry::disabled())
}

/// [`save_capture`] reporting into telemetry (see [`write_capture_with`]).
pub fn save_capture_with(
    capture: &Capture,
    path: impl AsRef<Path>,
    telemetry: &Telemetry,
) -> Result<(), PersistError> {
    let file = std::fs::File::create(path)?;
    write_capture_with(capture, io::BufWriter::new(file), telemetry)
}

/// Load a capture from a file (sequential, unobserved).
pub fn load_capture(path: impl AsRef<Path>) -> Result<Capture, PersistError> {
    load_capture_with(path, &ReadOptions::default())
}

/// Load a capture from a file with parallel body decode and telemetry
/// (see [`read_capture_with`]).
pub fn load_capture_with(
    path: impl AsRef<Path>,
    opts: &ReadOptions,
) -> Result<Capture, PersistError> {
    // Unbuffered: the reader takes the whole file in one read to its end.
    read_capture_with(std::fs::File::open(path)?, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use dsspy_events::{AccessKind, AllocationSite, DsKind, Target};

    fn sample_capture() -> Capture {
        let session = Session::new();
        let mut h1 = session.register(AllocationSite::new("A", "m", 1), DsKind::List, "i32");
        for i in 0..500u32 {
            h1.record(AccessKind::Insert, Target::Index(i), i + 1);
        }
        let h2 = session.register(AllocationSite::new("B", "n", 2), DsKind::Array, "f64");
        drop(h1);
        drop(h2);
        session.finish()
    }

    #[test]
    fn round_trip_through_memory() {
        let capture = sample_capture();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        let back = read_capture(buf.as_slice()).unwrap();
        assert_eq!(back.profiles.len(), capture.profiles.len());
        assert_eq!(back.event_count(), capture.event_count());
        assert_eq!(back.stats, capture.stats);
        assert_eq!(back.session_nanos, capture.session_nanos);
        for (a, b) in back.profiles.iter().zip(capture.profiles.iter()) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn round_trip_through_file() {
        let capture = sample_capture();
        let dir = std::env::temp_dir().join(format!("dsspy-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("capture.dsspy");
        save_capture(&capture, &path).unwrap();
        let back = load_capture(&path).unwrap();
        assert_eq!(back.event_count(), capture.event_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = read_capture(&b"NOTACAPXXXX"[..]).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = read_capture(buf.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let capture = sample_capture();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        // Cut the file at several offsets: header, body, mid-event.
        for cut in [4usize, 11, 20, buf.len() / 2, buf.len() - 3] {
            let err = read_capture(&buf[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn rejects_corrupt_header_json() {
        let capture = sample_capture();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        // Flip a byte inside the JSON header region.
        buf[32] ^= 0xFF;
        let err = read_capture(buf.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::BadHeader(_)), "{err}");
    }

    #[test]
    fn empty_capture_round_trips() {
        let capture = Session::new().finish();
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        let back = read_capture(buf.as_slice()).unwrap();
        assert_eq!(back.profiles.len(), 0);
        assert_eq!(back.event_count(), 0);
    }
}
