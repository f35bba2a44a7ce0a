//! Binary persistence of round-robin databases.
//!
//! RRD files are the interchange format of the sysadmin tool chain the
//! paper's metrology service wraps (Ganglia, Munin, Cacti write them).
//! This codec is a compact little-endian format — not rrdtool's on-disk
//! layout, but carrying the same information — with a magic/version header
//! so stale files fail loudly.

use crate::db::{Archive, ArchiveSpec, Cf, Database, DsKind};

const MAGIC: &[u8; 4] = b"PRRD";
const VERSION: u16 = 1;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Not a PRRD file.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Truncated or corrupt payload.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not an RRD file (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported RRD version {v}"),
            CodecError::Corrupt(what) => write!(f, "corrupt RRD file: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn kind_tag(k: DsKind) -> u8 {
    match k {
        DsKind::Gauge => 0,
        DsKind::Counter => 1,
        DsKind::Derive => 2,
    }
}

fn kind_from(tag: u8) -> Result<DsKind, CodecError> {
    Ok(match tag {
        0 => DsKind::Gauge,
        1 => DsKind::Counter,
        2 => DsKind::Derive,
        _ => return Err(CodecError::Corrupt("ds kind")),
    })
}

fn cf_tag(c: Cf) -> u8 {
    match c {
        Cf::Average => 0,
        Cf::Min => 1,
        Cf::Max => 2,
        Cf::Last => 3,
    }
}

fn cf_from(tag: u8) -> Result<Cf, CodecError> {
    Ok(match tag {
        0 => Cf::Average,
        1 => Cf::Min,
        2 => Cf::Max,
        3 => Cf::Last,
        _ => return Err(CodecError::Corrupt("cf")),
    })
}

/// Serializes a database.
pub fn encode(db: &Database) -> Vec<u8> {
    let rings: usize = db.archives.iter().map(|a| a.ring.len() * 8 + 64).sum();
    let mut b = Vec::with_capacity(64 + rings);
    b.extend_from_slice(MAGIC);
    b.extend_from_slice(&VERSION.to_le_bytes());
    b.extend_from_slice(&db.step.to_le_bytes());
    b.push(kind_tag(db.kind));
    b.extend_from_slice(&db.heartbeat.to_le_bytes());
    b.extend_from_slice(&db.last_update.unwrap_or(i64::MIN).to_le_bytes());
    b.extend_from_slice(&db.last_raw.to_le_bytes());
    b.extend_from_slice(&db.pdp_sum.to_le_bytes());
    b.extend_from_slice(&db.pdp_known.to_le_bytes());
    b.extend_from_slice(&(db.archives.len() as u32).to_le_bytes());
    for a in &db.archives {
        b.push(cf_tag(a.spec.cf));
        b.extend_from_slice(&a.spec.steps_per_row.to_le_bytes());
        b.extend_from_slice(&a.spec.rows.to_le_bytes());
        b.extend_from_slice(&(a.head as u64).to_le_bytes());
        b.extend_from_slice(&(a.filled as u64).to_le_bytes());
        b.extend_from_slice(&a.last_row_end.unwrap_or(i64::MIN).to_le_bytes());
        b.extend_from_slice(&a.acc.to_le_bytes());
        b.extend_from_slice(&a.acc_count.to_le_bytes());
        for v in &a.ring {
            b.extend_from_slice(&v.to_le_bytes());
        }
    }
    b
}

/// The unread rest of an encoded database. Every read checks the
/// length first, so a truncated input is an error at the field it cuts.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let (head, rest) = self.0.split_first_chunk::<N>().ok_or(CodecError::Corrupt(what))?;
        self.0 = rest;
        Ok(*head)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        self.take(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.take(what).map(u64::from_le_bytes)
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        self.take(what).map(f64::from_le_bytes)
    }

    /// A timestamp, with `i64::MIN` standing for "none yet".
    fn timestamp(&mut self, what: &'static str) -> Result<Option<i64>, CodecError> {
        let v = self.take(what).map(i64::from_le_bytes)?;
        Ok((v != i64::MIN).then_some(v))
    }
}

/// Deserializes a database.
pub fn decode(buf: &[u8]) -> Result<Database, CodecError> {
    let mut buf = Cursor(buf);
    if &buf.take::<4>("header")? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes(buf.take("header")?);
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let step = buf.u64("fixed fields")?;
    if step == 0 {
        return Err(CodecError::Corrupt("zero step"));
    }
    let kind = kind_from(buf.take::<1>("fixed fields")?[0])?;
    let heartbeat = buf.u64("fixed fields")?;
    let last_update = buf.timestamp("fixed fields")?;
    let last_raw = buf.f64("fixed fields")?;
    let pdp_sum = buf.f64("fixed fields")?;
    let pdp_known = buf.f64("fixed fields")?;
    let n_arch = buf.u32("fixed fields")? as usize;
    if n_arch == 0 || n_arch > 64 {
        return Err(CodecError::Corrupt("archive count"));
    }
    let mut archives = Vec::with_capacity(n_arch);
    for _ in 0..n_arch {
        let cf = cf_from(buf.take::<1>("archive header")?[0])?;
        let steps_per_row = buf.u32("archive header")?;
        let rows = buf.u32("archive header")?;
        if steps_per_row == 0 || rows == 0 {
            return Err(CodecError::Corrupt("archive geometry"));
        }
        let head = buf.u64("archive header")? as usize;
        let filled = buf.u64("archive header")? as usize;
        let last_row_end = buf.timestamp("archive header")?;
        let acc = buf.f64("archive header")?;
        let acc_count = buf.u32("archive header")?;
        // bound the allocation by what the input actually holds
        if buf.0.len() / 8 < rows as usize {
            return Err(CodecError::Corrupt("ring data"));
        }
        if head >= rows as usize {
            return Err(CodecError::Corrupt("head index"));
        }
        if filled > rows as usize {
            return Err(CodecError::Corrupt("filled count"));
        }
        let mut ring = Vec::with_capacity(rows as usize);
        for _ in 0..rows {
            ring.push(buf.f64("ring data")?);
        }
        archives.push(Archive {
            spec: ArchiveSpec { cf, steps_per_row, rows },
            ring,
            head,
            filled,
            last_row_end,
            acc,
            acc_count,
        });
    }
    Ok(Database {
        step,
        kind,
        heartbeat,
        archives,
        last_update,
        last_raw,
        pdp_sum,
        pdp_known,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{ArchiveSpec, Cf, Database, DsKind};

    fn sample() -> Database {
        let mut db = Database::new(
            10,
            DsKind::Counter,
            60,
            &[
                ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 8 },
                ArchiveSpec { cf: Cf::Max, steps_per_row: 4, rows: 4 },
            ],
        );
        db.update(0, 0.0).unwrap();
        for k in 1..=20 {
            db.update(k * 10, (k * k * 100) as f64).unwrap();
        }
        db
    }

    #[test]
    fn round_trip_preserves_fetch_results() {
        let db = sample();
        let bytes = encode(&db);
        let back = decode(&bytes).unwrap();
        assert_eq!(db.step(), back.step());
        let a = db.fetch_best(0, 500);
        let b = back.fetch_best(0, 500);
        assert_eq!(a.len(), b.len());
        for ((t1, v1), (t2, v2)) in a.iter().zip(&b) {
            assert_eq!(t1, t2);
            assert!((v1 == v2) || (v1.is_nan() && v2.is_nan()));
        }
    }

    #[test]
    fn round_trip_allows_further_updates() {
        let db = sample();
        let mut back = decode(&encode(&db)).unwrap();
        back.update(210, 5e4).unwrap();
        assert!(!back.fetch_best(200, 210).is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(decode(b"NOPE....").unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    /// The wire format, pinned: files written before a codec change must
    /// read back after it.
    #[test]
    fn encoding_is_golden() {
        let bytes = encode(&sample());
        let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        });
        let head: String = bytes[..16].iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            (bytes.len(), fnv1a, head.as_str()),
            (245, 0x702e_09ae_a604_f5cb, "5052524401000a00000000000000013c")
        );
    }

    #[test]
    fn version_is_checked() {
        let mut bytes = encode(&sample());
        bytes[4] = 99;
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::BadVersion(99));
    }
}
