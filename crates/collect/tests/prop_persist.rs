//! Property tests: capture persistence is lossless for arbitrary captures,
//! and corrupted files are errors — never a panic, and never an allocation
//! sized by a length or count the file claims.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsspy_collect::persist::{read_capture, write_capture};
use dsspy_collect::{Capture, CollectorStats};
use dsspy_events::encode::checksum;
use dsspy_events::{
    AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, RuntimeProfile,
    Target, ThreadTag,
};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    (0u8..11).prop_map(|v| AccessKind::from_u8(v).unwrap())
}

fn arb_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        any::<u32>().prop_map(Target::Index),
        (any::<u32>(), any::<u32>()).prop_map(|(start, end)| Target::Range { start, end }),
        Just(Target::Whole),
        Just(Target::None),
    ]
}

/// Any field values: deltas between neighbours may be huge or negative.
fn arb_event() -> impl Strategy<Value = AccessEvent> {
    (
        any::<u64>(),
        any::<u64>(),
        arb_kind(),
        arb_target(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(seq, nanos, kind, target, len, thread)| AccessEvent {
            seq,
            nanos,
            kind,
            target,
            len,
            thread: ThreadTag(thread),
        })
}

fn arb_profile(id: u64) -> impl Strategy<Value = RuntimeProfile> {
    (
        proptest::collection::vec(arb_event(), 0..200),
        "[A-Za-z][A-Za-z0-9.]{0,20}",
        "[A-Za-z][A-Za-z0-9_]{0,15}",
        any::<u16>(),
    )
        .prop_map(move |(events, class, method, pos)| {
            RuntimeProfile::new(
                InstanceInfo::new(
                    InstanceId(id),
                    AllocationSite::new(class, method, u32::from(pos)),
                    DsKind::List,
                    "i64",
                ),
                events,
            )
        })
}

fn arb_capture() -> impl Strategy<Value = Capture> {
    proptest::collection::vec(any::<u8>(), 0..5).prop_flat_map(|ids| {
        let profiles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, _)| arb_profile(i as u64))
            .collect();
        (profiles, any::<u32>(), any::<u32>()).prop_map(|(profiles, events, nanos)| {
            Capture::new(
                profiles,
                CollectorStats {
                    events: u64::from(events),
                    batches: u64::from(events) / 7,
                    dropped: 0,
                },
                u64::from(nanos),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn capture_roundtrip(capture in arb_capture()) {
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        let back = read_capture(buf.as_slice()).unwrap();
        prop_assert_eq!(back.profiles.len(), capture.profiles.len());
        prop_assert_eq!(back.stats, capture.stats);
        prop_assert_eq!(back.session_nanos, capture.session_nanos);
        for (a, b) in back.profiles.iter().zip(capture.profiles.iter()) {
            prop_assert_eq!(&a.instance, &b.instance);
            prop_assert_eq!(&a.events, &b.events);
        }
    }

    #[test]
    fn truncation_never_panics(capture in arb_capture(), frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        let cut = ((buf.len() as f64) * frac) as usize;
        prop_assert!(read_capture(&buf[..cut]).is_err());
    }

    #[test]
    fn bitflips_never_panic(capture in arb_capture(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut buf = Vec::new();
        write_capture(&capture, &mut buf).unwrap();
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= 1 << bit;
        prop_assert!(read_capture(buf.as_slice()).is_err());
    }
}

/// Tracks the largest single allocation the current thread asks for.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` needs. `note` only
// touches a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded from the caller (see the impl).
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded from the caller (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded from the caller (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// A small capture: two instances, every target shape.
fn small_capture() -> Capture {
    let event = |seq: u64, kind, target| AccessEvent {
        seq,
        nanos: 100 + seq * 40,
        kind,
        target,
        len: seq as u32,
        thread: ThreadTag((seq % 2) as u32),
    };
    let info = |id| {
        InstanceInfo::new(
            InstanceId(id),
            AllocationSite::new("C", "m", 1),
            DsKind::List,
            "i32",
        )
    };
    let a = vec![
        event(0, AccessKind::Insert, Target::Index(0)),
        event(2, AccessKind::Search, Target::Range { start: 0, end: 3 }),
        event(3, AccessKind::Sort, Target::Whole),
    ];
    let b = vec![
        event(1, AccessKind::Insert, Target::Index(0)),
        event(4, AccessKind::Clear, Target::None),
    ];
    let profiles = vec![
        RuntimeProfile::new(info(0), a),
        RuntimeProfile::new(info(1), b),
    ];
    let stats = CollectorStats {
        events: 5,
        batches: 2,
        dropped: 0,
    };
    Capture::new(profiles, stats, 500)
}

fn written(capture: &Capture) -> Vec<u8> {
    let mut buf = Vec::new();
    write_capture(capture, &mut buf).unwrap();
    buf
}

/// Offset of the first body frame: magic, version, then the header frame.
fn first_body(file: &[u8]) -> usize {
    let header_len = u64::from_le_bytes(file[12..20].try_into().unwrap()) as usize;
    12 + 16 + header_len
}

/// `file` with its first body frame replaced by `body` and a valid
/// checksum, so the corruption reaches the body decoder.
fn with_first_body(file: &[u8], body: &[u8]) -> Vec<u8> {
    let at = first_body(file);
    let old_len = u64::from_le_bytes(file[at..at + 8].try_into().unwrap()) as usize;
    let mut out = file[..at].to_vec();
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(body).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&file[at + 16 + old_len..]);
    out
}

/// The largest single allocation this thread makes while reading `file`,
/// and the outcome.
fn largest_allocation_reading(file: &[u8]) -> (usize, bool) {
    LARGEST.with(|l| l.set(0));
    let ok = read_capture(file).is_ok();
    (LARGEST.with(|l| l.get()), ok)
}

/// Reading `file` fails, and allocates no more at once than reading the
/// intact `original` does, or than `file` is long.
fn assert_rejected_within_input(what: &str, file: &[u8], original: &[u8]) {
    let (baseline, ok) = largest_allocation_reading(original);
    assert!(ok);
    let (largest, ok) = largest_allocation_reading(file);
    assert!(!ok, "{what}: read back as a capture");
    assert!(
        largest <= baseline.max(file.len()),
        "{what}: allocated {largest} bytes at once for a {}-byte input",
        file.len()
    );
}

#[test]
fn every_single_bit_flip_is_an_error() {
    let file = written(&small_capture());
    assert!(read_capture(file.as_slice()).is_ok());
    for bit in 0..file.len() * 8 {
        let mut flipped = file.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(
            read_capture(flipped.as_slice()).is_err(),
            "flipping bit {} of byte {} went unnoticed",
            bit % 8,
            bit / 8
        );
    }
}

#[test]
fn inflated_lengths_and_counts_fail_within_the_input() {
    let file = written(&small_capture());
    let at = first_body(&file);
    let set_u64 = |offset: usize, v: u64| {
        let mut out = file.clone();
        out[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
        out
    };
    let check = |what, corrupt: &[u8]| assert_rejected_within_input(what, corrupt, &file);
    check("header length u64::MAX", &set_u64(12, u64::MAX));
    check("body length u64::MAX", &set_u64(at, u64::MAX));
    let past_end = (file.len() - at - 16 + 1) as u64;
    check("body length past the end", &set_u64(at, past_end));
    // A 10-byte body claiming u32::MAX events.
    let mut count = vec![0xff, 0xff, 0xff, 0xff, 0x0f];
    count.resize(10, 0);
    check("count u32::MAX", &with_first_body(&file, &count));
    // An 11-byte varint: ten continuation bytes, then a terminator.
    let mut varint = vec![0x80; 10];
    varint.push(0);
    check("11-byte varint", &with_first_body(&file, &varint));
    // Sanity: the splice itself keeps a valid body valid.
    let mut body = Vec::new();
    dsspy_events::encode::encode_batch(&small_capture().profiles[0].events, &mut body);
    assert!(read_capture(with_first_body(&file, &body).as_slice()).is_ok());
}

#[test]
fn trailing_bytes_are_an_error() {
    let mut file = written(&small_capture());
    file.push(0);
    assert!(read_capture(file.as_slice()).is_err());
}
