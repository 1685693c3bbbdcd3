//! Field output (legacy-ASCII VTK structured points) and the
//! checkpoint codec the resilience layer snapshots driver state through.
//!
//! # Checkpoint format
//!
//! A checkpoint is a little-endian binary blob:
//!
//! ```text
//! magic   [u8; 4]   = "LBCK"
//! version u32       = 1
//! flavor  u64       = FNV-1a of the producing driver's flavor string
//! len     u64       = payload length in bytes
//! fnv     u64       = FNV-1a of the payload bytes
//! payload [u8; len] = driver-defined sequence of u64 / f64 words
//! ```
//!
//! The payload is written and read as raw IEEE-754 bit patterns
//! ([`f64::to_bits`]), so a restore reproduces the saved state *bitwise* —
//! the property the recovery loop's replay-equivalence guarantee rests on.
//! The flavor tag prevents restoring, say, an MR snapshot into an ST
//! driver; the payload checksum catches torn or corrupted snapshots.

use crate::geometry::Geometry;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

// ---------------------------------------------------------------------------
// FNV-1a checksums
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher (std-only; used for checkpoint payload
/// checksums and field fingerprints).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Bitwise fingerprint of a macroscopic field: FNV-1a over the IEEE-754
/// bit patterns of `rho` then `u`, in index order. Two runs whose final
/// fields hash equal are bitwise-identical — the acceptance criterion for
/// fault recovery.
pub fn field_checksum(rho: &[f64], u: &[[f64; 3]]) -> u64 {
    let mut h = Fnv64::new();
    for v in rho {
        h.update(&v.to_bits().to_le_bytes());
    }
    for v in u {
        for c in v {
            h.update(&c.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Checkpoint codec
// ---------------------------------------------------------------------------

/// Leading magic of every checkpoint blob.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"LBCK";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Why a checkpoint failed to restore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The format version is not [`CHECKPOINT_VERSION`].
    BadVersion(u32),
    /// The blob was produced by a different driver flavor.
    WrongFlavor { expected: String, found: u64 },
    /// The blob ends before its declared payload does.
    Truncated,
    /// The payload checksum does not match — corrupted snapshot.
    ChecksumMismatch,
    /// The payload disagrees with the restoring driver's configuration
    /// (dimensions, lattice, shard count, …).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(
                f,
                "unsupported checkpoint version {v} (expected {CHECKPOINT_VERSION})"
            ),
            CheckpointError::WrongFlavor { expected, found } => write!(
                f,
                "checkpoint flavor mismatch: expected \"{expected}\", found tag {found:#x}"
            ),
            CheckpointError::Truncated => write!(f, "truncated checkpoint"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint payload checksum mismatch"),
            CheckpointError::Mismatch(s) => write!(f, "checkpoint/driver mismatch: {s}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Builder for a checkpoint blob: append words, then [`finish`] to get the
/// framed, checksummed bytes.
///
/// [`finish`]: CheckpointWriter::finish
pub struct CheckpointWriter {
    flavor: u64,
    payload: Vec<u8>,
}

impl CheckpointWriter {
    /// Start a checkpoint for the given driver flavor string (e.g.
    /// `"st-sim"`, `"multi-mr2d"`).
    pub fn new(flavor: &str) -> Self {
        CheckpointWriter {
            flavor: fnv1a(flavor.as_bytes()),
            payload: Vec::new(),
        }
    }

    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.payload.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64` as its raw bit pattern (bitwise round trip).
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.put_u64(v.to_bits())
    }

    /// Append a whole slice of `f64`s as raw bit patterns.
    pub fn put_f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.payload.reserve(vs.len() * 8);
        for v in vs {
            self.payload.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// Frame the payload: magic, version, flavor tag, length, checksum.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 32);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.flavor.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Flavor string for a parity-tagged checkpoint: in-place (single-lattice)
/// drivers suffix their base flavor with the step parity, so a restore can
/// only land on the matching half of the two-step AA cycle. `"aa-st"` at
/// step 7 becomes `"aa-st+odd"`.
pub fn parity_flavor(base: &str, steps: u64) -> String {
    format!(
        "{base}+{}",
        if steps.is_multiple_of(2) {
            "even"
        } else {
            "odd"
        }
    )
}

/// Sequential reader over a validated checkpoint payload.
#[derive(Debug)]
pub struct CheckpointReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> CheckpointReader<'a> {
    /// Validate framing, version, flavor, and checksum; on success return a
    /// reader positioned at the start of the payload.
    pub fn open(bytes: &'a [u8], flavor: &str) -> Result<Self, CheckpointError> {
        if bytes.len() < 32 {
            return Err(if bytes.starts_with(&CHECKPOINT_MAGIC) || bytes.len() < 4 {
                CheckpointError::Truncated
            } else {
                CheckpointError::BadMagic
            });
        }
        if bytes[..4] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let found = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if found != fnv1a(flavor.as_bytes()) {
            return Err(CheckpointError::WrongFlavor {
                expected: flavor.to_string(),
                found,
            });
        }
        let len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let payload = bytes.get(32..32 + len).ok_or(CheckpointError::Truncated)?;
        if fnv1a(payload) != sum {
            return Err(CheckpointError::ChecksumMismatch);
        }
        Ok(CheckpointReader { payload, pos: 0 })
    }

    /// Like [`CheckpointReader::open`], but accept any of several flavor
    /// strings; returns the reader plus the index of the flavor that
    /// matched. Parity-tagged drivers use this to discover which half-cycle
    /// a snapshot was taken at before committing to a restore path.
    pub fn open_any(bytes: &'a [u8], flavors: &[&str]) -> Result<(Self, usize), CheckpointError> {
        let mut last = CheckpointError::BadMagic;
        for (k, flavor) in flavors.iter().enumerate() {
            match Self::open(bytes, flavor) {
                Ok(r) => return Ok((r, k)),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    pub fn take_u64(&mut self) -> Result<u64, CheckpointError> {
        let bytes = self
            .payload
            .get(self.pos..self.pos + 8)
            .ok_or(CheckpointError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    pub fn take_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read `n` raw-bit `f64`s.
    pub fn take_f64s(&mut self, n: usize) -> Result<Vec<f64>, CheckpointError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take_f64()?);
        }
        Ok(out)
    }

    /// Expect a specific `u64` (configuration guards: dims, Q, M, …).
    pub fn expect_u64(&mut self, expected: u64, what: &str) -> Result<(), CheckpointError> {
        let got = self.take_u64()?;
        if got != expected {
            return Err(CheckpointError::Mismatch(format!(
                "{what}: checkpoint has {got}, driver has {expected}"
            )));
        }
        Ok(())
    }

    /// Unconsumed payload bytes (0 after a complete read-back).
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }
}

/// Write a legacy-ASCII VTK `STRUCTURED_POINTS` dataset with density and
/// velocity point data (openable with ParaView).
pub fn write_vtk<W: Write>(
    w: &mut W,
    geom: &Geometry,
    rho: &[f64],
    u: &[[f64; 3]],
) -> io::Result<()> {
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "lbm-mr field output")?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET STRUCTURED_POINTS")?;
    writeln!(w, "DIMENSIONS {} {} {}", geom.nx, geom.ny, geom.nz)?;
    writeln!(w, "ORIGIN 0 0 0")?;
    writeln!(w, "SPACING 1 1 1")?;
    writeln!(w, "POINT_DATA {}", geom.len())?;
    writeln!(w, "SCALARS density double 1")?;
    writeln!(w, "LOOKUP_TABLE default")?;
    for v in rho {
        writeln!(w, "{v:.9}")?;
    }
    writeln!(w, "VECTORS velocity double")?;
    for v in u {
        writeln!(w, "{:.9} {:.9} {:.9}", v[0], v[1], v[2])?;
    }
    Ok(())
}

/// Write a VTK field to `path` through a [`BufWriter`]: one syscall per
/// 8 KiB instead of one per node.
pub fn write_vtk_file<P: AsRef<Path>>(
    path: P,
    geom: &Geometry,
    rho: &[f64],
    u: &[[f64; 3]],
) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_vtk(&mut w, geom, rho, u)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rig() -> (Geometry, Vec<f64>, Vec<[f64; 3]>) {
        let geom = Geometry::periodic_2d(2, 2);
        let rho = vec![1.0, 1.1, 0.9, 1.0];
        let u = vec![[0.1, 0.0, 0.0]; 4];
        (geom, rho, u)
    }

    #[test]
    fn vtk_structure() {
        let (g, rho, u) = rig();
        let mut buf = Vec::new();
        write_vtk(&mut buf, &g, &rho, &u).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("DATASET STRUCTURED_POINTS"));
        assert!(s.contains("DIMENSIONS 2 2 1"));
        assert!(s.contains("SCALARS density"));
        assert!(s.contains("VECTORS velocity"));
    }

    /// The buffered file helper produces byte-identical output to the
    /// in-memory writer.
    #[test]
    fn buffered_file_writers_match_in_memory() {
        let (g, rho, u) = rig();
        let dir = std::env::temp_dir().join("lbm_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let vtk_path = dir.join("field.vtk");
        write_vtk_file(&vtk_path, &g, &rho, &u).unwrap();
        let mut mem_vtk = Vec::new();
        write_vtk(&mut mem_vtk, &g, &rho, &u).unwrap();
        assert_eq!(std::fs::read(&vtk_path).unwrap(), mem_vtk);
        let _ = std::fs::remove_file(vtk_path);
    }

    #[test]
    fn checkpoint_codec_round_trips_bitwise() {
        let fields = [1.0, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0, -2.5e300];
        let mut w = CheckpointWriter::new("test-driver");
        w.put_u64(42).put_f64(0.1 + 0.2).put_f64s(&fields);
        let blob = w.finish();
        let mut r = CheckpointReader::open(&blob, "test-driver").unwrap();
        assert_eq!(r.take_u64().unwrap(), 42);
        assert_eq!(r.take_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        let back = r.take_f64s(fields.len()).unwrap();
        for (a, b) in back.iter().zip(&fields) {
            assert_eq!(a.to_bits(), b.to_bits(), "bitwise round trip failed");
        }
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.take_u64(), Err(CheckpointError::Truncated));
    }

    #[test]
    fn checkpoint_rejects_corruption_and_mismatches() {
        let mut w = CheckpointWriter::new("flavor-a");
        w.put_u64(7).put_u64(9);
        let blob = w.finish();

        // Wrong flavor.
        assert!(matches!(
            CheckpointReader::open(&blob, "flavor-b"),
            Err(CheckpointError::WrongFlavor { .. })
        ));
        // Flipped payload byte → checksum mismatch.
        let mut bad = blob.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(
            CheckpointReader::open(&bad, "flavor-a").unwrap_err(),
            CheckpointError::ChecksumMismatch
        );
        // Truncated payload.
        assert_eq!(
            CheckpointReader::open(&blob[..blob.len() - 4], "flavor-a").unwrap_err(),
            CheckpointError::Truncated
        );
        // Bad magic.
        let mut nom = blob.clone();
        nom[0] = b'X';
        assert_eq!(
            CheckpointReader::open(&nom, "flavor-a").unwrap_err(),
            CheckpointError::BadMagic
        );
        // Bad version.
        let mut ver = blob.clone();
        ver[4] = 99;
        assert!(matches!(
            CheckpointReader::open(&ver, "flavor-a"),
            Err(CheckpointError::BadVersion(99))
        ));
        // Configuration guard.
        let mut r = CheckpointReader::open(&blob, "flavor-a").unwrap();
        r.expect_u64(7, "q").unwrap();
        assert!(matches!(
            r.expect_u64(10, "nx"),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn parity_flavor_tags_half_cycle() {
        assert_eq!(parity_flavor("aa-st", 0), "aa-st+even");
        assert_eq!(parity_flavor("aa-st", 7), "aa-st+odd");
        assert_eq!(parity_flavor("mr2d-twist", 12), "mr2d-twist+even");
    }

    #[test]
    fn open_any_discovers_the_matching_flavor() {
        let mut w = CheckpointWriter::new("aa-st+odd");
        w.put_u64(3);
        let blob = w.finish();
        let (mut r, which) =
            CheckpointReader::open_any(&blob, &["aa-st+even", "aa-st+odd"]).unwrap();
        assert_eq!(which, 1);
        assert_eq!(r.take_u64().unwrap(), 3);
        // No flavor matches → the error reports the last candidate tried.
        assert!(matches!(
            CheckpointReader::open_any(&blob, &["st", "mr2d"]),
            Err(CheckpointError::WrongFlavor { .. })
        ));
    }

    #[test]
    fn field_checksum_is_bit_sensitive() {
        let rho = vec![1.0, 1.5];
        let u = vec![[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]];
        let a = field_checksum(&rho, &u);
        assert_eq!(a, field_checksum(&rho, &u), "checksum must be stable");
        let mut rho2 = rho.clone();
        rho2[1] = f64::from_bits(rho2[1].to_bits() ^ 1); // one ULP
        assert_ne!(a, field_checksum(&rho2, &u));
        let mut u2 = u.clone();
        u2[0][2] = -0.0; // sign of zero is a bit flip too
        assert_ne!(a, field_checksum(&rho, &u2));
    }
}
