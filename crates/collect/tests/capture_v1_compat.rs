//! Captures saved in format version 1 stay readable. The fixture was written
//! by the last version-1 writer from [`fixture_capture`]; the reader must
//! load it back event for event.

use dsspy_collect::persist::load_capture;
use dsspy_collect::{Capture, CollectorStats};
use dsspy_events::{
    AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, Origin,
    RuntimeProfile, Target, ThreadTag,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/capture_v1.dsspycap"
);

/// The capture the fixture holds: three hand-made profiles covering every
/// target shape, two threads and a manually instrumented instance.
fn fixture_capture() -> Capture {
    let mut seq = 0u64;
    let mut event = |kind, target, len, thread| {
        seq += 1;
        AccessEvent {
            seq,
            nanos: 1_000 + seq * 37 + (seq % 5) * 3,
            kind,
            target,
            len,
            thread: ThreadTag(thread),
        }
    };
    // A list filled in one long insertion run, then read at random.
    let mut load = Vec::new();
    for i in 0..150u32 {
        load.push(event(AccessKind::Insert, Target::Index(i), i + 1, 0));
    }
    for j in 0..30u32 {
        load.push(event(AccessKind::Read, Target::Index(j * 7 % 150), 150, 0));
    }
    // An array scanned whole and searched by range from two threads.
    let mut scan = Vec::new();
    for j in 0..20u32 {
        scan.push(event(AccessKind::ForAll, Target::Whole, 64, j % 2));
        scan.push(event(
            AccessKind::Search,
            Target::Range { start: j, end: 64 },
            64,
            j % 2,
        ));
    }
    scan.push(event(AccessKind::Resize, Target::None, 128, 1));
    // A list used as a queue, then sorted, reversed, copied and cleared.
    let mut queue = Vec::new();
    for i in 0..40u32 {
        queue.push(event(
            AccessKind::Insert,
            Target::Index(i % 8),
            i % 8 + 1,
            0,
        ));
        if i % 2 == 1 {
            queue.push(event(AccessKind::Delete, Target::Index(0), i % 8, 0));
        }
    }
    queue.push(event(AccessKind::Sort, Target::Whole, 20, 0));
    queue.push(event(AccessKind::Reverse, Target::Whole, 20, 0));
    queue.push(event(
        AccessKind::Copy,
        Target::Range { start: 2, end: 9 },
        20,
        0,
    ));
    queue.push(event(AccessKind::Write, Target::Index(3), 20, 0));
    queue.push(event(AccessKind::Clear, Target::Whole, 0, 0));

    let mut manual = InstanceInfo::new(
        InstanceId(2),
        AllocationSite::new("Fixture.Jobs", "Drain", 30),
        DsKind::List,
        "Job",
    );
    manual.origin = Origin::Manual;
    let profiles = vec![
        RuntimeProfile::new(
            InstanceInfo::new(
                InstanceId(0),
                AllocationSite::new("Fixture.Corpus", "Load", 10),
                DsKind::List,
                "System.String",
            ),
            load,
        ),
        RuntimeProfile::new(
            InstanceInfo::new(
                InstanceId(1),
                AllocationSite::new("Fixture.Grid", "Scan", 20),
                DsKind::Array,
                "System.Double",
            ),
            scan,
        ),
        RuntimeProfile::new(manual, queue),
    ];
    let events: u64 = profiles.iter().map(|p| p.len() as u64).sum();
    let stats = CollectorStats {
        events,
        batches: 9,
        dropped: 0,
    };
    Capture::new(profiles, stats, 1_000 + (events + 1) * 37)
}

#[test]
fn version_1_fixture_loads_event_for_event() {
    let raw = std::fs::read(FIXTURE).expect("the fixture is committed");
    assert_eq!(&raw[8..12], &1u32.to_le_bytes(), "the fixture is version 1");
    let want = fixture_capture();
    let got = load_capture(FIXTURE).expect("a version-1 capture loads");
    assert_eq!(got.stats, want.stats);
    assert_eq!(got.session_nanos, want.session_nanos);
    assert!(got.collection_telemetry.is_none());
    assert_eq!(got.profiles.len(), want.profiles.len());
    for (a, b) in got.profiles.iter().zip(&want.profiles) {
        assert_eq!(a.instance, b.instance);
        assert_eq!(a.events, b.events);
    }
}
