//! Property tests: the event codec is a lossless bijection on events, and
//! malformed bytes are errors, never panics or oversized allocations.

use dsspy_events::encode::{decode_batch, decode_batch_v1, encode_batch, MIN_EVENT_BYTES};
use dsspy_events::{AccessEvent, AccessKind, Target, ThreadTag};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    (0u8..11).prop_map(|v| AccessKind::from_u8(v).unwrap())
}

fn arb_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        any::<u32>().prop_map(Target::Index),
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| Target::Range {
            start: a.min(b),
            end: a.max(b)
        }),
        Just(Target::Whole),
        Just(Target::None),
    ]
}

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

fn encoded(events: &[AccessEvent]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_batch(events, &mut buf);
    buf
}

proptest! {
    #[test]
    fn event_roundtrip(e in arb_event()) {
        let bytes = encoded(&[e]);
        prop_assert_eq!(decode_batch(&bytes).unwrap(), vec![e]);
    }

    #[test]
    fn batch_roundtrip(events in proptest::collection::vec(arb_event(), 0..200)) {
        let bytes = encoded(&events);
        prop_assert!(bytes.len() > events.len() * MIN_EVENT_BYTES);
        prop_assert_eq!(decode_batch(&bytes).unwrap(), events);
    }

    #[test]
    fn truncation_is_an_error(events in proptest::collection::vec(arb_event(), 1..20), cut_frac in 0.0f64..1.0) {
        let bytes = encoded(&events);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(decode_batch(&bytes[..cut]).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Error or some events — never a panic, in either version.
        let _ = decode_batch(&bytes);
        let _ = decode_batch_v1(&bytes);
    }
}
