//! Content-addressed cell-result store.
//!
//! The campaign service and the batch harness both persist completed
//! simulation cells into a shared on-disk store so identical cells are
//! computed exactly once, no matter how many concurrent campaigns (or
//! `run_all` children) ask for them. The store is *content-addressed*: a
//! cell's file name is the hex form of its key, so equal configurations
//! collide onto one file and lookups are a single `stat`.
//!
//! A cell's key is `SimConfig::key` (in the `autorfm` crate): a digest of
//! [`MODEL_FINGERPRINT`](crate::MODEL_FINGERPRINT) and of *every* field of
//! the configuration the cell runs — timings, controller knobs, tracker,
//! seed, everything. A changed default or a changed model therefore lands on
//! a different file, never on a stale record. This module only files records
//! under the keys it is given.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/cells/<16-hex-digit key>.cell   sealed KIND_CELL container
//! <root>/campaigns/<id>.json             campaign specs (daemon-managed)
//! ```
//!
//! Each cell file is a sealed container (see [`crate::seal`]) of kind
//! [`KIND_CELL`] whose payload is a [`CellRecord`]: the key (self-check), and
//! either the caller-encoded result bytes or a failure message. Writes go
//! through [`crate::write_file`] (a per-writer tmp file + atomic rename), so a
//! killed writer never leaves a half-written cell behind, and two processes
//! racing on the same key both land the identical deterministic bytes.
//!
//! This module deliberately knows nothing about `SimResult`: callers encode
//! and decode the result payload themselves (the snapshot crate sits below
//! the simulator crates), which is also what keeps the batch harness and the
//! campaign daemon byte-compatible — both store the same `SimResult`
//! encoding under the same `SimConfig::key`.

use crate::{digest64, open, write_file, Reader, SnapError, Writer, KIND_CELL, KIND_FUZZ};
use std::path::{Path, PathBuf};

/// A digest of five sweep axes (workload, scenario name, cores,
/// instructions, seed). **Not a cell identity**: it leaves out every other
/// configuration field and the model fingerprint, so stores are keyed by
/// `SimConfig::key` instead. Kept only for external benchmark code that
/// still imports it.
pub fn cell_key(workload: &str, scenario: &str, cores: u8, instructions: u64, seed: u64) -> u64 {
    let mut w = Writer::new();
    w.put_str(scenario);
    w.put_str(workload);
    w.put_u8(cores);
    w.put_u64(instructions);
    w.put_u64(seed);
    digest64(w.bytes())
}

/// One stored cell: either the encoded result bytes of a completed
/// simulation, or the error string of a failed one. Failures are persisted
/// too — simulations are deterministic, so retrying a failed cell would fail
/// again, and a restarted daemon must not loop on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// The key this record answers (self-check against the file name).
    pub key: u64,
    /// Encoded result bytes on success, the failure message otherwise.
    pub outcome: Result<Vec<u8>, String>,
}

impl CellRecord {
    /// A completed cell carrying `bytes` (the caller's result encoding).
    pub fn ok(key: u64, bytes: Vec<u8>) -> Self {
        CellRecord {
            key,
            outcome: Ok(bytes),
        }
    }

    /// A failed cell carrying its error message.
    pub fn failed(key: u64, error: impl Into<String>) -> Self {
        CellRecord {
            key,
            outcome: Err(error.into()),
        }
    }

    /// Digest of the stored result bytes (`None` for failures). Two cells
    /// with equal digests hold bitwise-identical results.
    pub fn result_digest(&self) -> Option<u64> {
        self.outcome.as_ref().ok().map(|b| digest64(b))
    }

    /// Encodes the record as a [`KIND_CELL`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.key);
        match &self.outcome {
            Ok(bytes) => {
                w.put_u8(1);
                w.put_bytes(bytes);
            }
            Err(error) => {
                w.put_u8(0);
                w.put_str(error);
            }
        }
        w.into_bytes()
    }

    /// Decodes a [`KIND_CELL`] payload written by [`CellRecord::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncation, a bad outcome tag, or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, SnapError> {
        let mut r = Reader::new(payload);
        let key = r.take_u64()?;
        let outcome = match r.take_u8()? {
            1 => Ok(r.take_bytes()?.to_vec()),
            0 => Err(r.take_str()?),
            b => return Err(SnapError::corrupt(format!("bad cell outcome tag {b}"))),
        };
        if !r.is_empty() {
            return Err(SnapError::corrupt("trailing bytes after cell record"));
        }
        Ok(CellRecord { key, outcome })
    }
}

/// A content-addressed directory of sealed [`CellRecord`]s keyed by
/// configuration key (`SimConfig::key`). Cheap to clone conceptually (it holds only the root path);
/// all operations go straight to the filesystem, so many processes can share
/// one store — atomic per-cell writes are the only coordination needed.
#[derive(Debug, Clone)]
pub struct CellStore {
    root: PathBuf,
}

impl CellStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory tree cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("cells"))?;
        Ok(CellStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file path answering `key`.
    pub fn cell_path(&self, key: u64) -> PathBuf {
        self.root.join("cells").join(format!("{key:016x}.cell"))
    }

    /// Whether a record for `key` is on disk (completed or failed).
    pub fn contains(&self, key: u64) -> bool {
        self.cell_path(key).exists()
    }

    /// Reads the record stored under `key`. Missing, corrupt, or
    /// wrong-key files all read as `None` — a damaged cell is simply
    /// recomputed, never trusted.
    pub fn get(&self, key: u64) -> Option<CellRecord> {
        read_record(&self.cell_path(key), KIND_CELL, key)
    }

    /// Writes `record` under `key` atomically (tmp file + rename).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error. A record whose `key` field disagrees
    /// with `key` is rejected as [`std::io::ErrorKind::InvalidInput`].
    pub fn put(&self, key: u64, record: &CellRecord) -> std::io::Result<()> {
        write_record(&self.cell_path(key), KIND_CELL, key, record)
    }

    /// Every key with a record on disk, sorted. (Scans the directory; meant
    /// for inspection and tests, not hot paths.)
    pub fn keys(&self) -> Vec<u64> {
        self.scan_keys(".cell")
    }

    fn scan_keys(&self, suffix: &str) -> Vec<u64> {
        let mut out: Vec<u64> = std::fs::read_dir(self.root.join("cells"))
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name();
                let name = name.to_str()?;
                u64::from_str_radix(name.strip_suffix(suffix)?, 16).ok()
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// The file path answering fuzz-evaluation `key`. Fuzz records share the
    /// `cells/` root with sweep cells but carry their own extension and
    /// container kind, so the two record families can never shadow each
    /// other even on colliding keys.
    pub fn fuzz_path(&self, key: u64) -> PathBuf {
        self.root.join("cells").join(format!("{key:016x}.fuzz"))
    }

    /// Reads the fuzz-evaluation record stored under `key`. Missing,
    /// corrupt, wrong-kind, or wrong-key files all read as `None` — a
    /// damaged record is simply re-evaluated, never trusted.
    pub fn get_fuzz(&self, key: u64) -> Option<CellRecord> {
        read_record(&self.fuzz_path(key), KIND_FUZZ, key)
    }

    /// Writes fuzz-evaluation `record` under `key` atomically.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error. A record whose `key` field disagrees
    /// with `key` is rejected as [`std::io::ErrorKind::InvalidInput`].
    pub fn put_fuzz(&self, key: u64, record: &CellRecord) -> std::io::Result<()> {
        write_record(&self.fuzz_path(key), KIND_FUZZ, key, record)
    }

    /// Every fuzz-evaluation key with a record on disk, sorted.
    pub fn fuzz_keys(&self) -> Vec<u64> {
        self.scan_keys(".fuzz")
    }

    /// Number of fuzz-evaluation records on disk.
    pub fn fuzz_len(&self) -> usize {
        self.fuzz_keys().len()
    }

    /// Number of records on disk.
    pub fn len(&self) -> usize {
        self.keys().len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.keys().is_empty()
    }
}

/// The one read path of both record families: the sealed container at
/// `path` must be of `kind` and hold a [`CellRecord`] for `key`.
fn read_record(path: &Path, kind: u8, key: u64) -> Option<CellRecord> {
    let bytes = std::fs::read(path).ok()?;
    let c = open(&bytes).ok()?;
    if c.kind != kind {
        return None;
    }
    let record = CellRecord::decode(c.payload).ok()?;
    (record.key == key).then_some(record)
}

/// The one write path of both record families: seals `record` as `kind` at
/// `path`, refusing a record whose own key is not `key`.
fn write_record(path: &Path, kind: u8, key: u64, record: &CellRecord) -> std::io::Result<()> {
    if record.key != key {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("record key {:#x} filed under {key:#x}", record.key),
        ));
    }
    write_file(path, kind, &record.encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("autorfm-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_round_trips() {
        let ok = CellRecord::ok(7, vec![1, 2, 3]);
        assert_eq!(CellRecord::decode(&ok.encode()).unwrap(), ok);
        assert_eq!(ok.result_digest(), Some(digest64(&[1, 2, 3])));
        let bad = CellRecord::failed(9, "lane panicked");
        assert_eq!(CellRecord::decode(&bad.encode()).unwrap(), bad);
        assert_eq!(bad.result_digest(), None);
    }

    #[test]
    fn store_put_get_contains() {
        let dir = scratch("basic");
        let store = CellStore::open(&dir).unwrap();
        let key = 0x0123_4567_89ab_cdef;
        assert!(!store.contains(key));
        assert!(store.get(key).is_none());
        store
            .put(key, &CellRecord::ok(key, b"result".to_vec()))
            .unwrap();
        assert!(store.contains(key));
        assert_eq!(store.get(key).unwrap().outcome.unwrap(), b"result");
        assert_eq!(store.keys(), vec![key]);
        assert_eq!(store.len(), 1);
        // Reopening sees the same contents (that's the resumability story).
        let again = CellStore::open(&dir).unwrap();
        assert!(again.contains(key));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_key_is_rejected_on_write_and_read() {
        let dir = scratch("mismatch");
        let store = CellStore::open(&dir).unwrap();
        assert!(store.put(1, &CellRecord::ok(2, vec![])).is_err());
        // A record filed under the wrong name reads as absent.
        let rec = CellRecord::ok(5, b"x".to_vec());
        write_file(&store.cell_path(6), KIND_CELL, &rec.encode()).unwrap();
        assert!(store.get(6).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cells_read_as_absent() {
        let dir = scratch("corrupt");
        let store = CellStore::open(&dir).unwrap();
        let key = 0xABCD;
        std::fs::write(store.cell_path(key), b"garbage").unwrap();
        assert!(store.get(key).is_none());
        assert!(store.contains(key), "the damaged file is still there");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_records_read_as_misses_and_are_replaced() {
        let dir = scratch("v1");
        let store = CellStore::open(&dir).unwrap();
        let key = 0x0bad_5eed_0000_0001;
        let old = CellRecord::ok(key, b"v1 result".to_vec()).encode();
        std::fs::write(store.cell_path(key), crate::tests::seal_v1(KIND_CELL, &old)).unwrap();
        std::fs::write(store.fuzz_path(key), crate::tests::seal_v1(KIND_FUZZ, &old)).unwrap();
        assert!(store.get(key).is_none());
        assert!(store.get_fuzz(key).is_none());
        // The re-simulated record overwrites the old file with a v2 one.
        let cell = CellRecord::ok(key, b"cell".to_vec());
        let fuzz = CellRecord::ok(key, b"fuzz".to_vec());
        store.put(key, &cell).unwrap();
        store.put_fuzz(key, &fuzz).unwrap();
        assert_eq!(store.get(key), Some(cell));
        assert_eq!(store.get_fuzz(key), Some(fuzz));
        for path in [store.cell_path(key), store.fuzz_path(key)] {
            let bytes = std::fs::read(path).unwrap();
            assert_eq!(open(&bytes).unwrap().version, crate::FORMAT_VERSION);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuzz_records_live_beside_cells_without_shadowing() {
        let dir = scratch("fuzz");
        let store = CellStore::open(&dir).unwrap();
        let key = 0x1234_5678_9ABC_DEF0u64;
        // Same key in both families: each family sees only its own record.
        store
            .put(key, &CellRecord::ok(key, b"cell".to_vec()))
            .unwrap();
        store
            .put_fuzz(key, &CellRecord::ok(key, b"fuzz".to_vec()))
            .unwrap();
        assert_eq!(store.get(key).unwrap().outcome.unwrap(), b"cell");
        assert_eq!(store.get_fuzz(key).unwrap().outcome.unwrap(), b"fuzz");
        assert_eq!(store.keys(), vec![key]);
        assert_eq!(store.fuzz_keys(), vec![key]);
        assert_eq!(store.fuzz_len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuzz_record_kind_and_key_are_enforced() {
        let dir = scratch("fuzz-kind");
        let store = CellStore::open(&dir).unwrap();
        // Mismatched key rejected on write.
        assert!(store.put_fuzz(1, &CellRecord::ok(2, vec![])).is_err());
        // A KIND_CELL container under a .fuzz name reads as absent.
        let rec = CellRecord::ok(7, b"x".to_vec());
        write_file(&store.fuzz_path(7), KIND_CELL, &rec.encode()).unwrap();
        assert!(store.get_fuzz(7).is_none());
        // Corrupt bytes read as absent.
        std::fs::write(store.fuzz_path(8), b"garbage").unwrap();
        assert!(store.get_fuzz(8).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_puts_of_one_key_all_land_whole() {
        let dir = scratch("race");
        let store = CellStore::open(&dir).unwrap();
        let key = 0xfedc_ba98_7654_3210;
        let record = CellRecord::ok(key, vec![7u8; 64 * 1024]);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..20 {
                        store.put(key, &record).expect("every put succeeds");
                        store.put_fuzz(key, &record).expect("every put succeeds");
                        assert_eq!(store.get(key).as_ref(), Some(&record));
                        assert_eq!(store.get_fuzz(key).as_ref(), Some(&record));
                    }
                });
            }
        });
        let leftovers: Vec<_> = std::fs::read_dir(dir.join("cells"))
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_keys_separate_every_axis() {
        let base = cell_key("mcf", "AutoRFM-4", 8, 1000, 42);
        assert_ne!(base, cell_key("wrf", "AutoRFM-4", 8, 1000, 42));
        assert_ne!(base, cell_key("mcf", "AutoRFM-8", 8, 1000, 42));
        assert_ne!(base, cell_key("mcf", "AutoRFM-4", 4, 1000, 42));
        assert_ne!(base, cell_key("mcf", "AutoRFM-4", 8, 2000, 42));
        assert_ne!(base, cell_key("mcf", "AutoRFM-4", 8, 1000, 43));
        assert_eq!(base, cell_key("mcf", "AutoRFM-4", 8, 1000, 42));
    }
}
