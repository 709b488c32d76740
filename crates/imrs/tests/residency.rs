//! Residency races on the RID-Map metadata word.
//!
//! The IMRS keeps no row directory: a row is resident while the
//! residency bit of its RID-Map entry is set, and the same word holds
//! its partition, origin and ILM queue claim. These tests race the
//! operations that flip those bits — `remove_row` against a second
//! `remove_row`, against `get`, and against GC's queue claim — and
//! check that exactly one caller removes each row, that row and byte
//! accounting comes out exact, and that no flip disturbs the partition
//! or origin bits. Debug builds also run the atomics-discipline witness
//! and the lock-rank witness on every access.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use btrim_common::{PartitionId, RowId, Timestamp, TxnId};
use btrim_imrs::{ImrsStore, RidMap, RowOrigin, VersionOp};

const ROWS: u64 = 3000;
const PARTITIONS: u32 = 4;
const ROUNDS: usize = 4;

fn expected(row: RowId) -> (PartitionId, RowOrigin) {
    let origin = match row.0 % 3 {
        0 => RowOrigin::Inserted,
        1 => RowOrigin::Migrated,
        _ => RowOrigin::Cached,
    };
    (PartitionId((row.0 % PARTITIONS as u64) as u32), origin)
}

fn image(row: RowId) -> Vec<u8> {
    vec![row.0 as u8; 24 + (row.0 % 200) as usize]
}

/// Insert every row with a committed first version and, for every
/// third row, a second committed version.
fn populate(store: &ImrsStore, ts: u64) {
    for i in 1..=ROWS {
        let row = RowId(i);
        let (partition, origin) = expected(row);
        let (r, _) = store
            .insert_row_committed(row, partition, origin, TxnId(1), &image(row), Timestamp(ts))
            .unwrap();
        if i % 3 == 0 {
            store
                .add_version(&r, TxnId(2), VersionOp::Update, Some(&image(row)))
                .unwrap()
                .stamp(Timestamp(ts + 1));
        }
    }
}

#[test]
fn exactly_one_remover_and_exact_accounting() {
    let ridmap = Arc::new(RidMap::new());
    let store = ImrsStore::new(64 * 1024 * 1024, 1024 * 1024, Arc::clone(&ridmap));
    let clock = AtomicU64::new(10);
    for round in 0..ROUNDS {
        populate(&store, 10 + round as u64 * 10);
        assert_eq!(store.row_count(), ROWS as usize);
        for p in 0..PARTITIONS {
            assert_eq!(store.usage(PartitionId(p)).rows(), ROWS / PARTITIONS as u64);
        }
        let removed: Vec<AtomicU32> = (0..=ROWS).map(|_| AtomicU32::new(0)).collect();
        let stop = AtomicBool::new(false);
        let start = Barrier::new(5);
        std::thread::scope(|s| {
            // Two removers walk the rows in opposite directions, so
            // they meet in the middle and contend on every row there.
            for dir in 0..2 {
                let (store, removed, clock, start) = (&store, &removed, &clock, &start);
                s.spawn(move || {
                    start.wait();
                    for k in 0..ROWS {
                        let i = if dir == 0 { 1 + k } else { ROWS - k };
                        let now = || Timestamp(clock.fetch_add(1, Ordering::Relaxed));
                        if store.remove_row(RowId(i), now) {
                            removed[i as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            // GC: claims queue membership on every row it still finds
            // resident and releases it again.
            {
                let (store, stop, start) = (&store, &stop, &start);
                s.spawn(move || {
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        for i in 1..=ROWS {
                            if let Some(r) = store.get(RowId(i)) {
                                if r.try_mark_enqueued() {
                                    r.clear_enqueued();
                                }
                            }
                        }
                    }
                });
            }
            // Readers: a resident handle always carries the row's own
            // partition and origin, and any version it still shows has
            // the row's image.
            for _ in 0..2 {
                let (store, stop, start) = (&store, &stop, &start);
                s.spawn(move || {
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        for i in 1..=ROWS {
                            let row = RowId(i);
                            let Some(r) = store.get(row) else { continue };
                            assert_eq!((r.partition, r.origin), expected(row));
                            if let Some(v) = r.visible_version(Timestamp(u64::MAX), TxnId(0)) {
                                let h = v.handle.expect("updates carry images");
                                assert_eq!(store.allocator().load(h), image(row));
                            }
                        }
                    }
                });
            }
            // Stop the endless loops once both removers are done.
            while (1..=ROWS).any(|i| store.contains(RowId(i))) {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });
        for i in 1..=ROWS {
            let row = RowId(i);
            assert_eq!(
                removed[i as usize].load(Ordering::Relaxed),
                1,
                "{row:?} removers"
            );
            assert!(store.get(row).is_none());
            // The flips kept the metadata.
            assert_eq!(ridmap.admitted(row), Some(expected(row)));
            // Every claim was released.
            assert!(ridmap.try_mark_enqueued(row));
            ridmap.clear_enqueued(row);
        }
        assert_eq!(store.row_count(), 0);
        assert_eq!(store.used_bytes(), 0);
        for p in 0..PARTITIONS {
            let u = store.usage(PartitionId(p));
            assert_eq!((u.rows(), u.bytes()), (0, 0), "partition {p}");
        }
        // No reader is left: the quarantined chains recycle in full.
        store.reclaim(Timestamp(u64::MAX));
        assert_eq!(store.allocator().quarantined_bytes(), 0);
        assert_eq!(store.arena().quarantined_nodes(), 0);
    }
}

#[test]
fn queue_claim_has_one_winner_per_row() {
    let ridmap = Arc::new(RidMap::new());
    let store = ImrsStore::new(16 * 1024 * 1024, 1024 * 1024, Arc::clone(&ridmap));
    populate(&store, 5);
    let wins: Vec<AtomicU32> = (0..=ROWS).map(|_| AtomicU32::new(0)).collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (store, wins) = (&store, &wins);
            s.spawn(move || {
                for i in 1..=ROWS {
                    let r = store.get(RowId(i)).unwrap();
                    if r.try_mark_enqueued() {
                        wins[i as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    for i in 1..=ROWS {
        let row = RowId(i);
        assert_eq!(wins[i as usize].load(Ordering::Relaxed), 1, "{row:?}");
        let r = store.get(row).unwrap();
        assert_eq!((r.partition, r.origin), expected(row));
    }
    assert_eq!(store.row_count(), ROWS as usize);
}
