//! # autorfm-snapshot
//!
//! Versioned, hand-rolled binary serialization for simulator state.
//!
//! Every other crate in the workspace implements [`Snapshot`] (or inherent
//! `snapshot_state` / `restore_state` methods when decoding needs external
//! context such as a config) on top of the [`Writer`] / [`Reader`] byte codec
//! defined here. The format is deliberately simple:
//!
//! * all integers are **little-endian, fixed width** (no varints);
//! * `f64` is encoded as its IEEE-754 bit pattern (`to_bits`), so round-trips
//!   are exact, including NaN payloads;
//! * collections are a `u64` length followed by the elements;
//! * `Option<T>` is a `u8` tag (0 = `None`, 1 = `Some`) followed by the value;
//! * hash maps must be encoded in **sorted key order** by the caller so equal
//!   states always produce equal bytes (and therefore equal digests).
//!
//! On-disk snapshots are wrapped in a [`seal`]ed container: a magic number,
//! a format version, a payload kind, the payload, and a trailing [FNV-1a]
//! digest of everything before it. [`open`] verifies all four, so truncated
//! or corrupted checkpoint files are rejected with a clear error instead of
//! yielding garbage state.
//!
//! The digest doubles as the repo's *state fingerprint*: golden tests pin
//! `digest64` of a snapshot taken after a seeded run, which catches both
//! nondeterminism and accidental format drift in one assertion (see
//! DESIGN.md, "Snapshot format").
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/
//!
//! # Examples
//!
//! ```
//! use autorfm_snapshot::{digest64, open, seal, Reader, Snapshot, Writer};
//!
//! let mut w = Writer::new();
//! 42u64.encode(&mut w);
//! vec![1u32, 2, 3].encode(&mut w);
//! let file = seal(7, w.bytes());
//! let c = open(&file).unwrap();
//! assert_eq!(c.kind, 7);
//! let mut r = Reader::new(&c.payload);
//! assert_eq!(u64::decode(&mut r).unwrap(), 42);
//! assert_eq!(Vec::<u32>::decode(&mut r).unwrap(), vec![1, 2, 3]);
//! assert!(r.is_empty());
//! let _fingerprint = digest64(&c.payload);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::fmt;

/// File magic for sealed snapshot containers.
pub const MAGIC: [u8; 4] = *b"ARFM";

/// Current snapshot format version. Bump on any incompatible layout change;
/// [`open`] rejects mismatched versions (no cross-version migration — see
/// DESIGN.md for the compatibility policy).
pub const FORMAT_VERSION: u16 = 1;

/// Payload kind: a full mid-run [`System`](https://docs.rs) checkpoint.
pub const KIND_SYSTEM: u8 = 0;
/// Payload kind: a post-warmup (streams + LLC) state for warmup forking.
pub const KIND_WARM: u8 = 1;
/// Payload kind: one content-addressed sweep-cell result (see [`store`]).
pub const KIND_CELL: u8 = 3;
/// Payload kind: one content-addressed fuzz-evaluation result (a
/// `CandidateResult` keyed by `(fuzz config, genome)`; see [`store`]).
pub const KIND_FUZZ: u8 = 4;

/// Fingerprint of the simulator model: the golden snapshot digest
/// `tests/golden.rs` pins. Every stored-result key is salted with it, so the
/// change that must update it turns every older record into a miss.
pub const MODEL_FINGERPRINT: u64 = 0xa092_a6d2_ea5d_3675;

/// Human-readable name of a container payload kind.
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_SYSTEM => "system checkpoint",
        KIND_WARM => "warm state",
        KIND_CELL => "cell result",
        KIND_FUZZ => "fuzz evaluation",
        _ => "unknown",
    }
}

pub mod store;

/// Errors arising while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The reader ran out of bytes.
    Eof,
    /// The bytes decoded to an impossible value (bad tag, unknown name, …).
    Corrupt(String),
    /// A sealed container failed validation (magic / version / digest).
    BadContainer(String),
}

impl SnapError {
    /// Shorthand for a [`SnapError::Corrupt`] with a formatted message.
    pub fn corrupt(msg: impl Into<String>) -> Self {
        SnapError::Corrupt(msg.into())
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof => write!(f, "unexpected end of snapshot data"),
            SnapError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            SnapError::BadContainer(m) => write!(f, "invalid snapshot container: {m}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only byte sink for encoding.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (platform-independent width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_raw(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Cursor over encoded bytes for decoding.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] if fewer than `n` bytes remain.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] if the reader is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take_raw(1)?[0])
    }

    /// Takes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] if fewer than 2 bytes remain.
    pub fn take_u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take_raw(2)?.try_into().unwrap()))
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] if fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take_raw(4)?.try_into().unwrap()))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] if fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take_raw(8)?.try_into().unwrap()))
    }

    /// Takes a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] if fewer than 16 bytes remain.
    pub fn take_u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take_raw(16)?.try_into().unwrap()))
    }

    /// Takes a `u64`-encoded `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] on truncation or [`SnapError::Corrupt`] if
    /// the value does not fit a `usize`.
    pub fn take_usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.take_u64()?).map_err(|_| SnapError::corrupt("length exceeds usize"))
    }

    /// Takes a `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] on truncation or [`SnapError::Corrupt`] on
    /// a byte other than 0 or 1.
    pub fn take_bool(&mut self) -> Result<bool, SnapError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::corrupt(format!("bad bool byte {b}"))),
        }
    }

    /// Takes an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] if fewer than 8 bytes remain.
    pub fn take_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Takes a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] on truncation.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.take_usize()?;
        self.take_raw(n)
    }

    /// Takes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Eof`] on truncation or [`SnapError::Corrupt`] on
    /// invalid UTF-8.
    pub fn take_str(&mut self) -> Result<String, SnapError> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::corrupt("string is not valid UTF-8"))
    }
}

/// A self-describing encode/decode pair. Implement this for types whose
/// decoding needs no external context; types that rebuild from a config
/// (devices, controllers) use inherent `snapshot_state` / `restore_state`
/// methods instead.
pub trait Snapshot: Sized {
    /// Appends `self` to `w`.
    fn encode(&self, w: &mut Writer);
    /// Reads a value back out of `r`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated or corrupt input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError>;
}

macro_rules! snapshot_int {
    ($($t:ty => $put:ident / $take:ident),* $(,)?) => {$(
        impl Snapshot for $t {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                r.$take()
            }
        }
    )*};
}

snapshot_int! {
    u8 => put_u8 / take_u8,
    u16 => put_u16 / take_u16,
    u32 => put_u32 / take_u32,
    u64 => put_u64 / take_u64,
    u128 => put_u128 / take_u128,
    usize => put_usize / take_usize,
    bool => put_bool / take_bool,
    f64 => put_f64 / take_f64,
}

impl Snapshot for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.take_str()
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(SnapError::corrupt(format!("bad Option tag {b}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.take_usize()?;
        // Guard against absurd lengths from corrupt data: each element is at
        // least one byte on the wire.
        if n > r.remaining() {
            return Err(SnapError::corrupt(format!("Vec length {n} exceeds data")));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// 64-bit FNV-1a hash of `bytes` — the snapshot digest. Stable across
/// platforms and releases; golden tests pin its value for seeded runs.
pub fn digest64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A validated, opened snapshot container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    /// Payload kind (one of the `KIND_*` constants).
    pub kind: u8,
    /// Format version the payload was written with.
    pub version: u16,
    /// The payload bytes.
    pub payload: Vec<u8>,
    /// FNV-1a digest of the payload (also the state fingerprint).
    pub digest: u64,
}

/// Wraps `payload` in a sealed container: magic, version, kind, length,
/// payload, digest.
pub fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 23);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let digest = digest64(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Opens and validates a sealed container.
///
/// # Errors
///
/// Returns [`SnapError::BadContainer`] on a wrong magic number, an
/// unsupported format version, a truncated payload, or a digest mismatch.
pub fn open(bytes: &[u8]) -> Result<Container, SnapError> {
    if bytes.len() < 23 {
        return Err(SnapError::BadContainer(format!(
            "file too short ({} bytes) to be a snapshot",
            bytes.len()
        )));
    }
    if bytes[0..4] != MAGIC {
        return Err(SnapError::BadContainer(
            "bad magic (not a snapshot file)".into(),
        ));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapError::BadContainer(format!(
            "format version {version} unsupported (expected {FORMAT_VERSION})"
        )));
    }
    let kind = bytes[6];
    let declared = u64::from_le_bytes(bytes[7..15].try_into().unwrap());
    let len = bytes.len() - 23; // no `15 + declared + 8`: it could overflow
    if declared != len as u64 {
        return Err(SnapError::BadContainer(format!(
            "truncated: {len}-byte payload on disk, header declares {declared}"
        )));
    }
    let stored = u64::from_le_bytes(bytes[15 + len..].try_into().unwrap());
    let actual = digest64(&bytes[..15 + len]);
    if stored != actual {
        return Err(SnapError::BadContainer(format!(
            "digest mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    let payload = bytes[15..15 + len].to_vec();
    let digest = digest64(&payload);
    Ok(Container {
        kind,
        version,
        payload,
        digest,
    })
}

/// Writes a sealed container to `path` atomically (tmp file + rename), so a
/// crash mid-write never leaves a half-written file behind.
///
/// Every call writes through its own tmp file in `path`'s directory, named
/// after the process id and a process-wide counter: concurrent writers of the
/// same path — threads or processes — never share a tmp file, so none can
/// rename another's half-written bytes into place. The last rename wins.
///
/// # Errors
///
/// Returns any I/O error from writing or renaming.
pub fn write_file(path: &std::path::Path, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    static NEXT_TMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT_TMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(".{}.{n}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let result =
        std::fs::write(&tmp, seal(kind, payload)).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads and validates a sealed container from `path`.
///
/// # Errors
///
/// Returns an I/O error string or a container-validation error, both as
/// [`SnapError::BadContainer`].
pub fn read_file(path: &std::path::Path) -> Result<Container, SnapError> {
    let bytes = std::fs::read(path)
        .map_err(|e| SnapError::BadContainer(format!("cannot read {}: {e}", path.display())))?;
    open(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut w = Writer::new();
        0xABu8.encode(&mut w);
        0xBEEFu16.encode(&mut w);
        0xDEAD_BEEFu32.encode(&mut w);
        u64::MAX.encode(&mut w);
        (u128::MAX - 7).encode(&mut w);
        true.encode(&mut w);
        false.encode(&mut w);
        (-0.0f64).encode(&mut w);
        f64::NAN.encode(&mut w);
        "héllo".to_string().encode(&mut w);
        let mut r = Reader::new(w.bytes());
        assert_eq!(u8::decode(&mut r).unwrap(), 0xAB);
        assert_eq!(u16::decode(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX);
        assert_eq!(u128::decode(&mut r).unwrap(), u128::MAX - 7);
        assert!(bool::decode(&mut r).unwrap());
        assert!(!bool::decode(&mut r).unwrap());
        assert_eq!(f64::decode(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(f64::decode(&mut r).unwrap().is_nan());
        assert_eq!(String::decode(&mut r).unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn container_round_trips() {
        let payload = b"some payload".to_vec();
        let sealed = seal(KIND_WARM, &payload);
        let c = open(&sealed).unwrap();
        assert_eq!(c.kind, KIND_WARM);
        assert_eq!(c.version, FORMAT_VERSION);
        assert_eq!(c.payload, payload);
        assert_eq!(c.digest, digest64(&payload));
    }

    #[test]
    fn collections_round_trip() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].encode(&mut w);
        Some(9u32).encode(&mut w);
        Option::<u32>::None.encode(&mut w);
        VecDeque::from(vec![(1u8, 2u16)]).encode(&mut w);
        let mut r = Reader::new(w.bytes());
        assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(Option::<u32>::decode(&mut r).unwrap(), Some(9));
        assert_eq!(Option::<u32>::decode(&mut r).unwrap(), None);
        assert_eq!(
            VecDeque::<(u8, u16)>::decode(&mut r).unwrap(),
            VecDeque::from(vec![(1, 2)])
        );
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(Vec::<u64>::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_containers_are_rejected() {
        let sealed = seal(KIND_SYSTEM, b"payload");
        // Flip a payload byte: digest mismatch.
        let mut bad = sealed.clone();
        bad[16] ^= 1;
        assert!(matches!(open(&bad), Err(SnapError::BadContainer(_))));
        // Truncate: length mismatch.
        assert!(matches!(
            open(&sealed[..sealed.len() - 3]),
            Err(SnapError::BadContainer(_))
        ));
        // Wrong magic.
        let mut bad = sealed.clone();
        bad[0] = b'X';
        assert!(matches!(open(&bad), Err(SnapError::BadContainer(_))));
        // Unsupported version.
        let mut bad = sealed;
        bad[4] = 0xFF;
        assert!(matches!(open(&bad), Err(SnapError::BadContainer(_))));
        // Empty file.
        assert!(matches!(open(&[]), Err(SnapError::BadContainer(_))));
    }

    #[test]
    fn digest_is_stable() {
        // FNV-1a test vectors.
        assert_eq!(digest64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn vec_length_bomb_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // absurd length, no elements
        let mut r = Reader::new(w.bytes());
        assert!(Vec::<u8>::decode(&mut r).is_err());
    }
}
