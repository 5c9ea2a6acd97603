//! Pins the pager's accounting to exact numbers. A fixed seeded
//! sequence on `BTreeOptions::small()` — puts that split leaves and
//! the root, gets, deletes that merge (and one merge refused because
//! the siblings are too full), scans, a checkpoint, a crash and a
//! recovery — must produce exactly the recorded page-cache traffic,
//! engine counters, SMART counters, filesystem usage and simulated
//! time. Any change to how the B+Tree touches its pages (an extra
//! access, a lost `last_access` bump, a different eviction victim)
//! moves at least one of them.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_btree::pager::PagerStats;
use ptsbench_btree::{BTreeDb, BTreeOptions, BTreeStats};
use ptsbench_cache::CacheStats;
use ptsbench_ssd::{DeviceConfig, DeviceProfile, SmartCounters, Ssd};
use ptsbench_vfs::{FsStats, Vfs, VfsOptions};

#[derive(Debug, Clone, Copy)]
enum Op {
    Put(u32, usize),
    Get(u32),
    Delete(u32),
    Scan(u32, Option<u32>, usize),
    Checkpoint,
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

fn value(i: u32, len: usize) -> Vec<u8> {
    (0..len).map(|b| (i as usize + b) as u8).collect()
}

/// The op sequence run before the crash.
fn script() -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(13);
    let mut ops = Vec::new();
    // Key-order load of 417-byte entries: append splits leave 9 entries
    // per leaf (keys 9j..9j+9 in leaf j), and about 222 leaves
    // overflow the root (at most 194 children), so the tree grows to
    // three levels.
    ops.extend((0..2000).map(|i| Op::Put(i, 400)));
    // Random-order inserts past the tail take the half-split path.
    let mut tail: Vec<u32> = (2000..2600).collect();
    for i in (1..tail.len()).rev() {
        tail.swap(i, rng.gen_range(0..=i));
    }
    ops.extend(tail.into_iter().map(|i| Op::Put(i, 400)));
    // Point reads over live and missing keys.
    ops.extend((0..400).map(|_| Op::Get(rng.gen_range(0..3000))));
    // Leaf 10 (keys 90..99) drops to two entries, below a quarter
    // page, but its right sibling is full: the merge is refused.
    ops.extend((90..97).map(Op::Delete));
    // A range delete empties whole leaves: leaf merges (most after a
    // few refusals while the emptying leaf still holds entries), then
    // internal merges, until the root is left with one child and the
    // tree shrinks back to two levels.
    ops.extend((300..2400).map(Op::Delete));
    // Deletes of missing keys.
    ops.extend((300..320).map(Op::Delete));
    // Mixed traffic with varied value sizes.
    for step in 0..300u32 {
        let k = rng.gen_range(0..2600);
        ops.push(match rng.gen_range(0..4) {
            0 => Op::Put(k, 100 + (step as usize % 300)),
            1 => Op::Delete(k),
            _ => Op::Get(k),
        });
    }
    ops.push(Op::Scan(1400, Some(1700), 100));
    ops.push(Op::Scan(0, None, usize::MAX));
    ops.push(Op::Checkpoint);
    // A journal tail past the checkpoint, replayed by recovery.
    ops.extend((0..100).map(|_| Op::Put(rng.gen_range(0..2600), 300)));
    ops
}

fn apply(db: &mut BTreeDb, op: Op) {
    match op {
        Op::Put(i, len) => db.put(&key(i), &value(i, len)).expect("put"),
        Op::Get(i) => {
            db.get(&key(i)).expect("get");
        }
        Op::Delete(i) => {
            db.delete(&key(i)).expect("delete");
        }
        Op::Scan(from, to, limit) => {
            let to = to.map(key);
            db.scan(&key(from), to.as_deref(), limit).expect("scan");
        }
        Op::Checkpoint => db.checkpoint().expect("checkpoint"),
    }
}

fn vfs() -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

#[derive(Debug, PartialEq)]
struct Snapshot {
    pager: PagerStats,
    btree: BTreeStats,
    smart: SmartCounters,
    fs: FsStats,
    now: u64,
}

fn snapshot(db: &BTreeDb, v: &Vfs) -> Snapshot {
    Snapshot {
        pager: db.pager_stats(),
        btree: db.stats(),
        smart: v.ssd().lock().smart(),
        fs: v.stats(),
        now: v.clock().now(),
    }
}

/// Internal pages a get visits on its way to a leaf, summed over the
/// gets in `ops`. The tree's shape depends only on the op sequence,
/// never on the cache, so an unmeasured twin that walks its whole tree
/// (`verify`) at the start of each run of gets knows the height the
/// measured tree has there.
fn internal_visits_of_gets(twin: &mut BTreeDb, ops: &[Op]) -> u64 {
    let mut visits = 0;
    let mut height = None;
    for &op in ops {
        if let Op::Get(_) = op {
            let h = *height.get_or_insert_with(|| twin.verify().0 as u64);
            visits += h.saturating_sub(1);
        } else {
            height = None;
        }
        apply(twin, op);
    }
    visits
}

#[test]
fn pager_accounting_is_pinned() {
    let v = vfs();
    let mut db = BTreeDb::open(v.clone(), BTreeOptions::small()).expect("open");
    let script = script();
    for &op in &script {
        apply(&mut db, op);
    }
    db.sync_journal().expect("sync");
    let before_crash = snapshot(&db, &v);
    // Crash: the handle is dropped without a clean shutdown.
    drop(db);
    let mut db = BTreeDb::recover(v.clone(), BTreeOptions::small()).expect("recover");
    let recovered = snapshot(&db, &v);

    // The hit counts below were captured when a get read every internal
    // page twice (a second access to re-route on the same node). A get
    // now makes one access per level: one hit, and one page of
    // `bytes_saved`, fewer per internal page it visits. The second
    // touch always hit and came right after the first, so LRU order,
    // evictions and every other number are unchanged.
    let mut twin = BTreeDb::open(vfs(), BTreeOptions::small()).expect("open twin");
    let rerouted = internal_visits_of_gets(&mut twin, &script);
    assert_eq!(
        before_crash,
        Snapshot {
            pager: PagerStats {
                cache: CacheStats {
                    hits: 15950 - rerouted,
                    misses: 1006,
                    admissions: 1349,
                    rejections: 0,
                    evictions: 1066,
                    bytes_saved: 65331200 - rerouted * 4096,
                },
                writebacks: 649,
                allocations: 343,
                checkpoints: 5,
            },
            btree: BTreeStats {
                puts: 2779,
                gets: 549,
                deletes: 2199,
                app_bytes_written: 1144429,
                splits: 340,
                merges: 258,
                checkpoints: 5,
            },
            smart: SmartCounters {
                host_pages_written: 1274,
                host_pages_read: 1006,
                nand_pages_written: 1274,
                nand_pages_read: 1006,
                blocks_erased: 0,
                gc_pages_relocated: 0,
                pages_trimmed: 0,
                gc_invocations: 0,
            },
            fs: FsStats {
                partition_pages: 8192,
                used_pages: 393,
                free_pages: 7799,
                live_files: 2,
                peak_used_pages: 393,
                data_bytes: 1372160,
                used_bytes: 1609728,
            },
            now: 1589455636638,
        }
    );
    // Recovery: the reachability walk, the journal replay (whose puts
    // split leaves again) and the closing checkpoint, on a fresh pager.
    assert_eq!(
        recovered,
        Snapshot {
            pager: PagerStats {
                cache: CacheStats {
                    hits: 185,
                    misses: 99,
                    admissions: 109,
                    rejections: 0,
                    evictions: 85,
                    bytes_saved: 757760,
                },
                writebacks: 36,
                allocations: 10,
                checkpoints: 1,
            },
            btree: BTreeStats {
                puts: 0,
                gets: 0,
                deletes: 0,
                app_bytes_written: 0,
                splits: 10,
                merges: 0,
                checkpoints: 1,
            },
            smart: SmartCounters {
                host_pages_written: 1311,
                host_pages_read: 1114,
                nand_pages_written: 1311,
                nand_pages_read: 1114,
                blocks_erased: 0,
                gc_pages_relocated: 0,
                pages_trimmed: 0,
                gc_invocations: 0,
            },
            fs: FsStats {
                partition_pages: 8192,
                used_pages: 393,
                free_pages: 7799,
                live_files: 2,
                peak_used_pages: 393,
                data_bytes: 1339392,
                used_bytes: 1609728,
            },
            now: 1728166182122,
        }
    );
    // The recovered count is the tree's, not the checkpoint's: pages
    // evicted after the checkpoint already hold some journaled inserts.
    assert_eq!(db.len(), live_keys(&script));
    assert_eq!(db.verify().1, live_keys(&script));
}

/// Keys live after `ops`.
fn live_keys(ops: &[Op]) -> u64 {
    let mut live = std::collections::BTreeSet::new();
    for &op in ops {
        match op {
            Op::Put(i, _) => {
                live.insert(i);
            }
            Op::Delete(i) => {
                live.remove(&i);
            }
            _ => {}
        }
    }
    live.len() as u64
}
