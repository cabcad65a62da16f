//! Column pages: the unit of encoding, checksumming and decoding.
//!
//! A page holds one column's values for one row group. On disk it is a
//! fixed 36-byte header followed by the encoded payload:
//!
//! ```text
//! magic    u16   0x5047 ("PG")
//! version  u8    1
//! encoding u8    see [`Encoding`]
//! rows     u32   values in this page
//! len      u32   payload bytes
//! checksum u64   FNV-1a over the payload
//! stat_a   u64   encoding-specific statistic (min / presence mask)
//! stat_b   u64   encoding-specific statistic (max)
//! payload  [u8; len]
//! ```
//!
//! The header is fixed-shape on purpose: a reader can validate a shard's
//! structure by hopping header-to-header without decoding any payload,
//! and a torn write is caught by `len` overrunning the file. The payload
//! checksum is verified at decode time.
//!
//! No reader consults `stat_a`/`stat_b`: every scan decodes every page.
//! The writer still fills them because they are part of format version
//! 1; dropping or zeroing them would change every shard byte, every store
//! fingerprint and the store's size, for no reader. They are the one
//! header region no checksum covers, which is harmless while nothing
//! reads them.

use crate::error::PageError;
use crate::wire::{self, Reader};

/// On-disk page magic, little-endian "GP".
pub const PAGE_MAGIC: u16 = 0x5047;
/// Current page format version.
pub const PAGE_VERSION: u8 = 1;
/// Fixed size of the on-disk page header in bytes.
pub const PAGE_HEADER_LEN: usize = 36;

/// The physical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// Signed 64-bit integers (timestamps, day indices).
    I64,
    /// Unsigned 32-bit integers (IPs, ASNs, small categorical ids).
    U32,
    /// Unsigned 64-bit integers (path fingerprints).
    U64,
    /// IEEE-754 doubles, transported as exact bit patterns.
    F64,
}

impl ColType {
    /// On-disk discriminant.
    pub fn tag(self) -> u8 {
        match self {
            ColType::I64 => 0,
            ColType::U32 => 1,
            ColType::U64 => 2,
            ColType::F64 => 3,
        }
    }

    /// Inverse of [`ColType::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ColType::I64),
            1 => Some(ColType::U32),
            2 => Some(ColType::U64),
            3 => Some(ColType::F64),
            _ => None,
        }
    }

    /// Width of one value in the raw little-endian reference encoding —
    /// the denominator of the store's compression-ratio metric.
    pub fn raw_width(self) -> usize {
        match self {
            ColType::U32 => 4,
            ColType::I64 | ColType::U64 | ColType::F64 => 8,
        }
    }
}

/// Decoded column values for one page.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    I64(Vec<i64>),
    U32(Vec<u32>),
    U64(Vec<u64>),
    F64(Vec<f64>),
}

impl ColumnData {
    /// Number of values held.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I64(v) => v.len(),
            ColumnData::U32(v) => v.len(),
            ColumnData::U64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
        }
    }

    /// True when the page holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical type of the values.
    pub fn col_type(&self) -> ColType {
        match self {
            ColumnData::I64(_) => ColType::I64,
            ColumnData::U32(_) => ColType::U32,
            ColumnData::U64(_) => ColType::U64,
            ColumnData::F64(_) => ColType::F64,
        }
    }
}

/// How a page's payload is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// `i64`: first value zigzag-varint, then zigzag-varint wrapping deltas.
    DeltaVarint,
    /// `u32`: raw little-endian, 4 bytes per value.
    Raw32,
    /// `u64`: raw little-endian, 8 bytes per value.
    Raw64,
    /// `u32`/`u64`: sorted-unique dictionary + varint codes. Chosen only
    /// when it beats the raw encoding for the page at hand.
    Dict,
    /// `f64`: raw little-endian bit patterns (exact NaN round-trip).
    F64Raw,
}

impl Encoding {
    /// On-disk discriminant.
    pub fn tag(self) -> u8 {
        match self {
            Encoding::DeltaVarint => 1,
            Encoding::Raw32 => 2,
            Encoding::Raw64 => 3,
            Encoding::Dict => 4,
            Encoding::F64Raw => 5,
        }
    }

    /// Inverse of [`Encoding::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(Encoding::DeltaVarint),
            2 => Some(Encoding::Raw32),
            3 => Some(Encoding::Raw64),
            4 => Some(Encoding::Dict),
            5 => Some(Encoding::F64Raw),
            _ => None,
        }
    }
}

/// Parsed on-disk page header.
#[derive(Debug, Clone, Copy)]
pub struct PageHeader {
    /// Encoding tag (validated against [`Encoding::from_tag`] at decode).
    pub encoding: u8,
    /// Number of values in the page.
    pub rows: u32,
    /// Payload length in bytes.
    pub len: u32,
    /// FNV-1a over the payload.
    pub checksum: u64,
    /// Encoding-specific statistic: minimum (as `u64` bit pattern) for
    /// `DeltaVarint`, 64-bit presence mask for integer encodings. Written,
    /// never read (see the module docs).
    pub stat_a: u64,
    /// Encoding-specific statistic: maximum value. Written, never read.
    pub stat_b: u64,
}

impl PageHeader {
    /// Parses a header from a reader, validating magic and version.
    pub fn parse(r: &mut Reader<'_>) -> Result<Self, PageError> {
        let magic = r.u16("page magic").map_err(|_| PageError::BadHeader)?;
        if magic != PAGE_MAGIC {
            return Err(PageError::BadHeader);
        }
        let version = r.u8("page version").map_err(|_| PageError::BadHeader)?;
        if version != PAGE_VERSION {
            return Err(PageError::BadHeader);
        }
        let encoding = r.u8("page encoding").map_err(|_| PageError::BadHeader)?;
        let rows = r.u32("page rows").map_err(|_| PageError::BadHeader)?;
        let len = r.u32("page len").map_err(|_| PageError::BadHeader)?;
        let checksum = r.u64("page checksum").map_err(|_| PageError::BadHeader)?;
        let stat_a = r.u64("page stat_a").map_err(|_| PageError::BadHeader)?;
        let stat_b = r.u64("page stat_b").map_err(|_| PageError::BadHeader)?;
        Ok(Self { encoding, rows, len, checksum, stat_a, stat_b })
    }
}

/// An encoded page ready to be written: header fields plus payload.
#[derive(Debug, Clone)]
pub struct EncodedPage {
    /// Chosen encoding.
    pub encoding: Encoding,
    /// Number of values encoded.
    pub rows: u32,
    /// FNV-1a over `payload`.
    pub checksum: u64,
    /// Statistic A (min bit pattern or presence mask).
    pub stat_a: u64,
    /// Statistic B (max value).
    pub stat_b: u64,
    /// Encoded payload bytes.
    pub payload: Vec<u8>,
}

impl EncodedPage {
    /// Serializes header + payload onto `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        wire::put_u16(out, PAGE_MAGIC);
        out.push(PAGE_VERSION);
        out.push(self.encoding.tag());
        wire::put_u32(out, self.rows);
        wire::put_u32(out, self.payload.len() as u32);
        wire::put_u64(out, self.checksum);
        wire::put_u64(out, self.stat_a);
        wire::put_u64(out, self.stat_b);
        out.extend_from_slice(&self.payload);
    }
}

/// Statistics for an `i64` page: `(min, max)` as `u64` bit patterns, with
/// the empty-page convention `min = i64::MAX`, `max = i64::MIN`.
fn i64_stats(values: &[i64]) -> (u64, u64) {
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    (min as u64, max as u64)
}

/// Statistics for an unsigned page: 64-bit presence mask (`1 << (v & 63)`
/// OR-ed over all values) and maximum value.
fn unsigned_stats(values: impl Iterator<Item = u64>) -> (u64, u64) {
    let mut mask = 0u64;
    let mut max = 0u64;
    for v in values {
        mask |= 1u64 << (v & 63);
        max = max.max(v);
    }
    (mask, max)
}

fn finish(encoding: Encoding, rows: usize, stat_a: u64, stat_b: u64, payload: Vec<u8>) -> EncodedPage {
    EncodedPage {
        encoding,
        rows: rows as u32,
        checksum: wire::fnv1a64(&payload),
        stat_a,
        stat_b,
        payload,
    }
}

/// Builds a sorted-unique dictionary payload for unsigned values, or
/// `None` when the dictionary encoding would not beat `raw_size` bytes.
fn try_dict(values: &[u64], raw_size: usize) -> Option<Vec<u8>> {
    let mut dict: Vec<u64> = values.to_vec();
    dict.sort_unstable();
    dict.dedup();
    // Size the encoding before materializing it: dict length + each
    // distinct value + one code per row.
    let mut size = wire::uvarint_len(dict.len() as u64);
    for &d in &dict {
        size += wire::uvarint_len(d);
    }
    let code_of = |v: u64| -> u64 {
        // `dict` is sorted and deduped, so every value is present.
        match dict.binary_search(&v) {
            Ok(i) => i as u64,
            Err(_) => 0,
        }
    };
    for &v in values {
        size += wire::uvarint_len(code_of(v));
    }
    if size >= raw_size {
        return None;
    }
    let mut payload = Vec::with_capacity(size);
    wire::put_uvarint(&mut payload, dict.len() as u64);
    for &d in &dict {
        wire::put_uvarint(&mut payload, d);
    }
    for &v in values {
        wire::put_uvarint(&mut payload, code_of(v));
    }
    Some(payload)
}

/// Encodes one column page, choosing the encoding per type:
/// delta+varint for `i64`, dictionary-or-raw for unsigned integers
/// (whichever is smaller for this page), raw bit patterns for `f64`.
pub fn encode_page(data: &ColumnData) -> EncodedPage {
    match data {
        ColumnData::I64(values) => {
            let (stat_a, stat_b) = i64_stats(values);
            let mut payload = Vec::with_capacity(values.len());
            let mut prev = 0i64;
            for (i, &v) in values.iter().enumerate() {
                if i == 0 {
                    wire::put_ivarint(&mut payload, v);
                } else {
                    wire::put_ivarint(&mut payload, v.wrapping_sub(prev));
                }
                prev = v;
            }
            finish(Encoding::DeltaVarint, values.len(), stat_a, stat_b, payload)
        }
        ColumnData::U32(values) => {
            let (stat_a, stat_b) = unsigned_stats(values.iter().map(|&v| v as u64));
            let raw_size = values.len() * 4;
            let widened: Vec<u64> = values.iter().map(|&v| v as u64).collect();
            match try_dict(&widened, raw_size) {
                Some(payload) => {
                    finish(Encoding::Dict, values.len(), stat_a, stat_b, payload)
                }
                None => {
                    let mut payload = Vec::with_capacity(raw_size);
                    for &v in values {
                        wire::put_u32(&mut payload, v);
                    }
                    finish(Encoding::Raw32, values.len(), stat_a, stat_b, payload)
                }
            }
        }
        ColumnData::U64(values) => {
            let (stat_a, stat_b) = unsigned_stats(values.iter().copied());
            let raw_size = values.len() * 8;
            match try_dict(values, raw_size) {
                Some(payload) => {
                    finish(Encoding::Dict, values.len(), stat_a, stat_b, payload)
                }
                None => {
                    let mut payload = Vec::with_capacity(raw_size);
                    for &v in values {
                        wire::put_u64(&mut payload, v);
                    }
                    finish(Encoding::Raw64, values.len(), stat_a, stat_b, payload)
                }
            }
        }
        ColumnData::F64(values) => {
            let mut payload = Vec::with_capacity(values.len() * 8);
            for &v in values {
                wire::put_f64(&mut payload, v);
            }
            finish(Encoding::F64Raw, values.len(), 0, 0, payload)
        }
    }
}

/// Decodes a page payload back into column values, verifying the
/// checksum first and the row count / trailing bytes after.
pub fn decode_page(header: &PageHeader, payload: &[u8], ty: ColType) -> Result<ColumnData, PageError> {
    let got = wire::fnv1a64(payload);
    if got != header.checksum {
        return Err(PageError::Checksum { want: header.checksum, got });
    }
    let encoding = Encoding::from_tag(header.encoding).ok_or(PageError::Encoding(header.encoding))?;
    let rows = header.rows as usize;
    let mut r = Reader::new(payload);
    let data = match (encoding, ty) {
        (Encoding::DeltaVarint, ColType::I64) => {
            let mut values = Vec::with_capacity(rows);
            let mut prev = 0i64;
            for i in 0..rows {
                let d = r.ivarint("delta")?;
                let v = if i == 0 { d } else { prev.wrapping_add(d) };
                values.push(v);
                prev = v;
            }
            ColumnData::I64(values)
        }
        (Encoding::Raw32, ColType::U32) => {
            let mut values = Vec::with_capacity(rows);
            for _ in 0..rows {
                values.push(r.u32("raw32 value")?);
            }
            ColumnData::U32(values)
        }
        (Encoding::Raw64, ColType::U64) => {
            let mut values = Vec::with_capacity(rows);
            for _ in 0..rows {
                values.push(r.u64("raw64 value")?);
            }
            ColumnData::U64(values)
        }
        (Encoding::Dict, ColType::U32 | ColType::U64) => {
            let dict_len = r.uvarint("dict len")? as usize;
            // A dictionary can never be larger than the page's row count;
            // reject early so a corrupt length cannot drive allocation.
            if dict_len > rows {
                return Err(PageError::Decode(crate::wire::CodecError::InvalidValue {
                    what: "dict len",
                    value: dict_len as u64,
                }));
            }
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(r.uvarint("dict value")?);
            }
            let mut decode_codes = |max: u64| -> Result<Vec<u64>, PageError> {
                let mut values = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let code = r.uvarint("dict code")?;
                    let v = *dict
                        .get(code as usize)
                        .ok_or(PageError::CodeOutOfRange { code, dict_len })?;
                    if v > max {
                        return Err(PageError::ValueOverflow { value: v });
                    }
                    values.push(v);
                }
                Ok(values)
            };
            match ty {
                ColType::U32 => ColumnData::U32(
                    decode_codes(u32::MAX as u64)?.into_iter().map(|v| v as u32).collect(),
                ),
                _ => ColumnData::U64(decode_codes(u64::MAX)?),
            }
        }
        (Encoding::F64Raw, ColType::F64) => {
            let mut values = Vec::with_capacity(rows);
            for _ in 0..rows {
                values.push(r.f64("f64 value")?);
            }
            ColumnData::F64(values)
        }
        (enc, _) => {
            // An encoding that cannot produce this column type means the
            // header and schema disagree — treat as a bad encoding tag.
            return Err(PageError::Encoding(enc.tag()));
        }
    };
    if r.remaining() != 0 {
        return Err(PageError::Trailing(r.remaining()));
    }
    Ok(data)
}
