//! A writer killed mid-`put` (SIGKILL: no unwinding, no cleanup) never
//! leaves a torn cell behind. `CellStore::put` writes a per-writer temporary
//! file and renames it into place, so every `cells/*.cell` file a reader can
//! see either opens and decodes, or is absent. The same holds for a plain
//! file written through `write_atomic` (the campaign daemon's persisted
//! specs): it is absent or whole.
#![cfg(unix)]

use autorfm_snapshot::store::{CellRecord, CellStore};
use autorfm_snapshot::write_atomic;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Keys each writer thread cycles through.
const KEYS: u64 = 4;
/// Writer threads in the child: with several, a kill usually lands while
/// one of them is inside a write.
const WRITERS: u64 = 4;

/// The store the writer child of process `pid` fills.
fn store_dir(pid: u32) -> PathBuf {
    std::env::temp_dir().join(format!("autorfm-torn-write-{pid}"))
}

/// The record writer thread `t` puts on its `i`-th write: large, so a kill
/// regularly lands mid-write.
fn record(t: u64, i: u64) -> CellRecord {
    let len = 256 * 1024 + (i as usize * 977) % 4096;
    CellRecord::ok(t * KEYS + i % KEYS, vec![i as u8; len])
}

/// The last line of every text file the child writes.
const MARKER: &str = "-- end of spec --\n";

/// The text file the child rewrites through `write_atomic` inside `dir`.
fn text_path(dir: &Path) -> PathBuf {
    dir.join("spec.json")
}

/// The text the child writes on its `i`-th rewrite: large, so a kill
/// regularly lands mid-write, and ending in [`MARKER`].
fn text(i: u64) -> String {
    let mut s = format!("{i}\n").repeat(64 * 1024 + (i as usize * 131) % 4096);
    s.push_str(MARKER);
    s
}

/// The writer the test below kills: `WRITERS` threads putting records and
/// one thread rewriting a text file through `write_atomic`, in a loop until
/// killed. It runs only as that test's child — it finds its
/// store through its parent's pid, and returns at once when started any
/// other way.
#[test]
#[ignore = "child process of sigkill_during_put_leaves_whole_cells_or_none"]
fn put_loop_child() {
    let dir = store_dir(std::os::unix::process::parent_id());
    if !dir.exists() {
        return;
    }
    let store = CellStore::open(&dir).unwrap();
    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let store = &store;
            scope.spawn(move || {
                for i in 0u64.. {
                    let rec = record(t, i);
                    store.put(rec.key, &rec).unwrap();
                }
            });
        }
        let path = text_path(&dir);
        scope.spawn(move || {
            for i in 0u64.. {
                write_atomic(&path, text(i).as_bytes()).unwrap();
            }
        });
    });
}

#[test]
fn sigkill_during_put_leaves_whole_cells_or_none() {
    let dir = store_dir(std::process::id());
    let _ = std::fs::remove_dir_all(&dir);
    let store = CellStore::open(&dir).unwrap();
    for round in 0..12u64 {
        let mut child = Command::new(std::env::current_exe().unwrap())
            .args(["put_loop_child", "--exact", "--ignored", "--quiet"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        // Let the writer get going, then kill it at a varying moment.
        let start = Instant::now();
        while store.len() < 2 && start.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(1 + 3 * round));
        child.kill().unwrap();
        child.wait().unwrap();

        if let Ok(text) = std::fs::read_to_string(text_path(&dir)) {
            assert!(
                text.ends_with(MARKER),
                "round {round}: truncated text file ({} bytes)",
                text.len()
            );
        }

        let keys = store.keys();
        assert!(!keys.is_empty(), "round {round}: the writer wrote nothing");
        for key in keys {
            let rec = store
                .get(key)
                .unwrap_or_else(|| panic!("round {round}: cell {key:x} is torn"));
            let bytes = rec.outcome.unwrap();
            assert_eq!(rec.key, key);
            assert!(
                bytes.len() >= 256 * 1024,
                "round {round}: short cell {key:x}"
            );
            assert!(
                bytes.iter().all(|&b| b == bytes[0]),
                "round {round}: mixed cell {key:x}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
